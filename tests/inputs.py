"""Small synthetic inputs the tests build their cases from.

Simple graph shapes (ring, grid, uniform random) and a Gaussian point
cloud.  The RNG call order is part of the contract: goldens that draw
from these generators pin their exact output.
"""

from __future__ import annotations

import numpy as np

from repro.graph import DiGraph
from repro.util import as_rng, check_non_negative, check_positive


def random_digraph(num_nodes: int, num_edges: int, *,
                   seed: "int | np.random.Generator | None" = None,
                   allow_self_loops: bool = False) -> DiGraph:
    """Uniform random digraph with ``num_edges`` edges (Erdős–Rényi G(n, m))."""
    check_positive("num_nodes", num_nodes)
    check_non_negative("num_edges", num_edges)
    rng = as_rng(seed)
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    if not allow_self_loops and num_nodes > 1:
        loops = src == dst
        while np.any(loops):
            dst[loops] = rng.integers(0, num_nodes, size=int(loops.sum()))
            loops = src == dst
    return DiGraph(num_nodes, src, dst)


def ring_graph(num_nodes: int) -> DiGraph:
    """Directed cycle 0 -> 1 -> ... -> n-1 -> 0."""
    check_positive("num_nodes", num_nodes)
    src = np.arange(num_nodes)
    dst = (src + 1) % num_nodes
    return DiGraph(num_nodes, src, dst)


def grid_graph(rows: int, cols: int) -> DiGraph:
    """Bidirectional 4-neighbour grid; a worst case for cut-minimising partitioners."""
    check_positive("rows", rows)
    check_positive("cols", cols)
    src: list[int] = []
    dst: list[int] = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                src += [u, u + 1]
                dst += [u + 1, u]
            if r + 1 < rows:
                v = u + cols
                src += [u, v]
                dst += [v, u]
    return DiGraph(rows * cols, src, dst)


def gaussian_mixture(
    num_points: int,
    num_clusters: int,
    num_dims: int = 2,
    *,
    spread: float = 0.5,
    box: float = 10.0,
    seed: "int | np.random.Generator | None" = None,
) -> "tuple[np.ndarray, np.ndarray]":
    """Sample ``num_points`` from ``num_clusters`` isotropic Gaussians.

    Returns ``(points, true_labels)``.  Cluster centres are drawn
    uniformly in ``[-box, box]^d``; per-cluster standard deviation is
    ``spread``.  Useful as a well-separated sanity input where K-Means
    should recover the generating structure.
    """
    check_positive("num_points", num_points)
    check_positive("num_clusters", num_clusters)
    check_positive("num_dims", num_dims)
    check_positive("spread", spread)
    check_positive("box", box)
    if num_clusters > num_points:
        raise ValueError("need at least one point per cluster")
    rng = as_rng(seed)
    centres = rng.uniform(-box, box, size=(num_clusters, num_dims))
    labels = rng.integers(0, num_clusters, size=num_points)
    points = centres[labels] + rng.normal(0.0, spread, size=(num_points, num_dims))
    return points, labels
