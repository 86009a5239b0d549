"""Workload inputs, built from ``--seed`` and nothing else.

The paper-graph workloads keep the *topology* fixed (Graph A at a
stated scale, partitioned once by the multilevel partitioner) and let
the seed draw a relabelling: node ids and partition ids are permuted,
k-means feature columns are permuted.  Layout — CSR order, hash
routing, which tablet a partition's bytes land on — changes with the
seed; the work to converge does not, so ten seeds measure the same
job.  The engine sweep draws a fresh synthetic web graph per seed with
fixed node and edge counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.data import census_sample
from repro.graph import (
    DiGraph,
    Partition,
    attach_random_weights,
    make_paper_graph,
    partition_graph,
)

__all__ = ["SweepInput", "sweep_input", "GraphInput", "graph_input",
           "kmeans_points"]

#: PageRank damping used by the sweep (the paper's chi).
DAMPING = 0.85
#: Power-law exponent shaping the sweep graph's in-degrees.
HUB_SKEW = 3.0


@dataclass
class SweepInput:
    """A synthetic web graph laid out for a vectorised PageRank sweep."""

    nodes: int
    #: Per map task: ``(src, dst, damped 1/outdeg, owned node ids)``.
    layout: list
    #: Flat edge arrays for the plain-NumPy oracle.
    src: np.ndarray
    dst: np.ndarray
    damped_inv_out: np.ndarray


def sweep_input(seed: int, *, nodes: int, edges_per_node: int,
                parts: int) -> SweepInput:
    """Power-law web graph (uniform sources, hub-skewed destinations)
    in contiguous per-task chunks — the ``bench_hot_paths`` shape."""
    rng = np.random.default_rng(seed)
    m = nodes * edges_per_node
    src = rng.integers(0, nodes, m)
    dst = (nodes * rng.random(m) ** HUB_SKEW).astype(np.int64)
    outdeg = np.bincount(src, minlength=nodes).astype(np.float64)
    inv_out = np.where(outdeg > 0, 1.0 / np.maximum(outdeg, 1), 0.0)
    damped = DAMPING * inv_out
    bounds = np.linspace(0, nodes, parts + 1).astype(np.int64)
    layout = []
    for p in range(parts):
        lo, hi = bounds[p], bounds[p + 1]
        mask = (src >= lo) & (src < hi)
        layout.append((src[mask], dst[mask], damped[src[mask]],
                       np.arange(lo, hi, dtype=np.int64)))
    return SweepInput(nodes=nodes, layout=layout, src=src, dst=dst,
                      damped_inv_out=damped)


@dataclass
class GraphInput:
    """Graph A, relabelled by the seed, with its partitions."""

    graph: DiGraph
    #: The same graph with the SSSP edge weights attached.
    weighted: DiGraph
    #: SSSP source (the relabelled image of node 0).
    source: int
    #: k -> partition of ``graph``.
    parts: "dict[int, Partition]"
    #: k -> the same partition over ``weighted``.
    wparts: "dict[int, Partition]"
    generate_s: float = 0.0
    partition_s: float = 0.0
    cut_fraction: "dict[int, float]" = field(default_factory=dict)


def graph_input(seed: int, *, scale: float, ks: "tuple[int, ...]") -> GraphInput:
    """Generate + partition the fixed topology, then relabel by ``seed``."""
    t0 = time.perf_counter()
    base = make_paper_graph("A", scale=scale, seed=0)
    wbase = attach_random_weights(base, low=1.0, high=10.0, seed=1)
    t1 = time.perf_counter()
    assigns = {k: partition_graph(base, k, method="multilevel", seed=0).assign
               for k in ks}
    t2 = time.perf_counter()

    rng = np.random.default_rng(seed)
    n = base.num_nodes
    new_id = rng.permutation(n)            # old node id -> new node id
    old_id = np.argsort(new_id)            # new node id -> old node id
    src, dst, w = wbase.edge_arrays()
    graph = DiGraph(n, new_id[src], new_id[dst])
    weighted = DiGraph(n, new_id[src], new_id[dst], w)
    parts, wparts, cut = {}, {}, {}
    for k, assign in assigns.items():
        relabelled = rng.permutation(k)[assign[old_id]]
        parts[k] = Partition(graph, relabelled, k)
        wparts[k] = Partition(weighted, relabelled, k)
        cut[k] = float(parts[k].cut_fraction())
    return GraphInput(graph=graph, weighted=weighted, source=int(new_id[0]),
                      parts=parts, wparts=wparts,
                      generate_s=t1 - t0, partition_s=t2 - t1,
                      cut_fraction=cut)


def kmeans_points(seed: int, *, rows: int) -> np.ndarray:
    """The census-like sample with its feature columns permuted by
    ``seed`` (distances, hence the clustering work, are unchanged)."""
    points = census_sample(rows, noise=0.35, num_profiles=12, seed=0)
    cols = np.random.default_rng(seed).permutation(points.shape[1])
    return np.ascontiguousarray(points[:, cols])
