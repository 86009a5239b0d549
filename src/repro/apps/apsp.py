"""Landmark all-pairs shortest paths — §V-C's "related structure".

    "All-Pairs Shortest Path has a related structure, and a similar
    approach can be used." (§V-C)

Full APSP is ``n`` single-source problems; at web-graph scale the
standard compromise (and what distributed systems actually deploy) is
*landmark* APSP: exact distances from a set of landmark sources, giving
the triangle-inequality upper bound ``d(u, v) <= min_l d_rev(l, u) +
d(l, v)`` for arbitrary pairs.  Each landmark's SSSP runs through the
same General/Eager machinery as §V-C, so every landmark benefits from
partial synchronization identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.sssp import sssp_spec
from repro.cluster import SimCluster
from repro.graph import DiGraph, Partition
from repro.util import as_rng

__all__ = ["LandmarkApspResult", "landmark_apsp"]


@dataclass
class LandmarkApspResult:
    """Distances from (and to) every landmark, plus run statistics."""

    landmarks: np.ndarray
    #: dist_from[l, v]: exact distance landmark l -> node v.
    dist_from: np.ndarray
    #: dist_to[l, u]: exact distance node u -> landmark l.
    dist_to: np.ndarray
    global_iters: int
    sim_time: float
    converged: bool


def landmark_apsp(
    graph: DiGraph,
    partition: Partition,
    *,
    num_landmarks: int = 4,
    mode: str = "eager",
    cluster: "SimCluster | None" = None,
    seed: "int | np.random.Generator | None" = 0,
) -> LandmarkApspResult:
    """Exact SSSP from ``num_landmarks`` random sources, forward and reverse.

    The reverse distances (node -> landmark) come from SSSP on the
    transpose graph with the same machinery.  Iteration/time statistics
    are summed over all the landmark runs (they would execute as
    independent jobs).
    """
    if num_landmarks < 1:
        raise ValueError("num_landmarks must be >= 1")
    if num_landmarks > graph.num_nodes:
        raise ValueError("more landmarks than nodes")
    rng = as_rng(seed)
    landmarks = np.sort(rng.choice(graph.num_nodes, size=num_landmarks,
                                   replace=False))

    rev_graph = graph.reverse()
    rev_partition = Partition(rev_graph, partition.assign, partition.k)

    dist_from = np.empty((num_landmarks, graph.num_nodes))
    dist_to = np.empty((num_landmarks, graph.num_nodes))
    total_iters = 0
    total_time = 0.0
    all_converged = True
    for i, l in enumerate(landmarks):
        fwd = sssp_spec(graph, partition, source=int(l), mode=mode).run(cluster)
        rev = sssp_spec(rev_graph, rev_partition, source=int(l),
                        mode=mode).run(cluster)
        dist_from[i] = np.asarray(fwd.state)
        dist_to[i] = np.asarray(rev.state)
        total_iters += fwd.global_iters + rev.global_iters
        total_time += fwd.sim_time + rev.sim_time
        all_converged &= fwd.converged and rev.converged
    return LandmarkApspResult(landmarks=landmarks, dist_from=dist_from,
                              dist_to=dist_to, global_iters=total_iters,
                              sim_time=total_time, converged=all_converged)
