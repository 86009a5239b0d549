"""Golden accounting of the block path, end to end.

PageRank / SSSP / k-means x general / eager as six jobs of one
fair-share ``Session`` on a priced ``SimCluster``: the global rounds
taken, every round's local iterations per partition and each job's
simulated time, as literals recorded at the commit before the block
specs moved onto ``repro.graph.split_edges`` (and before the loop
invariants left ``local_solve``).  ``test_object_path_golden.py`` pins
the engine path only; everywhere else the block path is compared
between two live runs of the same code.  SSSP runs the weighted twin
over the unweighted graph's partition, as ``cli.py schedule`` does.
"""

from __future__ import annotations

import pytest

from repro.apps import kmeans_spec, pagerank_spec, sssp_spec
from repro.cluster import SimCluster
from repro.core import Session
from repro.graph import (
    attach_random_weights,
    multilevel_partition,
    preferential_attachment,
)

from tests.inputs import gaussian_mixture

PARTS, KMEANS_PARTS = 6, 9

#: job -> (global_iters, local iterations per round and partition —
#: ``None``: one everywhere, the general baseline — and sim_time).
GOLDEN = {
    "pagerank-general": (55, None, 1390.419224999995),
    "sssp-general": (25, None, 643.0669668499996),
    "kmeans-general": (13, None, 338.5424117500003),
    "pagerank-eager": (21, [
        [59, 36, 32, 37, 22, 25],
        [50, 28, 24, 30, 22, 27],
        [28, 23, 24, 27, 18, 24],
        [31, 20, 22, 24, 19, 23],
        [26, 23, 21, 21, 16, 21],
        [27, 20, 19, 18, 16, 19],
        [25, 20, 17, 15, 13, 18],
        [23, 17, 16, 13, 13, 15],
        [21, 16, 14, 11, 11, 14],
        [18, 14, 12, 8, 11, 12],
        [16, 13, 10, 6, 8, 11],
        [13, 11, 8, 5, 8, 9],
        [11, 9, 7, 4, 6, 7],
        [8, 7, 5, 4, 6, 6],
        [6, 6, 4, 3, 5, 4],
        [5, 4, 3, 2, 4, 3],
        [4, 3, 2, 2, 3, 2],
        [3, 3, 2, 2, 2, 2],
        [2, 2, 1, 1, 2, 2],
        [2, 1, 1, 1, 1, 1],
        [1, 1, 1, 1, 1, 1],
    ], 542.656907749999),
    "sssp-eager": (11, [
        [6, 1, 1, 1, 1, 1],
        [1, 5, 7, 1, 1, 1],
        [2, 1, 4, 1, 1, 5],
        [1, 2, 6, 1, 1, 5],
        [1, 5, 6, 12, 1, 1],
        [1, 5, 4, 12, 8, 7],
        [2, 2, 4, 5, 8, 7],
        [2, 2, 4, 5, 4, 3],
        [1, 2, 4, 1, 4, 3],
        [1, 1, 3, 1, 1, 3],
        [1, 1, 1, 1, 1, 1],
    ], 287.1092528499998),
    "kmeans-eager": (10, [
        [3, 4, 2, 5, 3, 5, 6, 3, 6],
        [4, 3, 2, 3, 3, 3, 3, 3, 5],
        [3, 3, 2, 3, 3, 3, 3, 3, 4],
        [2, 5, 2, 3, 5, 4, 2, 3, 4],
        [2, 3, 2, 2, 4, 4, 3, 2, 5],
        [3, 3, 3, 4, 2, 3, 2, 3, 3],
        [3, 3, 2, 4, 3, 3, 2, 3, 3],
        [3, 3, 2, 3, 2, 3, 2, 3, 3],
        [3, 3, 2, 3, 2, 3, 3, 3, 3],
        [3, 3, 2, 3, 2, 3, 3, 3, 3],
    ], 261.04468499999984),
}
#: The shared clock when the last job finishes.
SESSION_CLOCK = 1391.0609214999956


@pytest.fixture(scope="module")
def handles():
    g = preferential_attachment(300, num_conn=3, locality_prob=0.9,
                                community_mean=30, seed=5)
    wg = attach_random_weights(g, low=0.5, high=5.0, seed=4)
    part = multilevel_partition(g, PARTS, seed=0)
    points, _ = gaussian_mixture(900, 5, 6, seed=2)
    cluster = SimCluster()
    with Session(cluster=cluster, policy="fair") as session:
        submitted = []
        for mode in ("general", "eager"):
            submitted.append(session.submit(pagerank_spec(
                g, part, mode=mode, name=f"pagerank-{mode}")))
            submitted.append(session.submit(sssp_spec(
                wg, part, source=2, mode=mode, name=f"sssp-{mode}")))
            submitted.append(session.submit(kmeans_spec(
                points, 5, mode=mode, num_partitions=KMEANS_PARTS,
                threshold=1e-3, seed=3, name=f"kmeans-{mode}")))
        session.run()
    assert cluster.clock == SESSION_CLOCK
    return {h.name: h for h in submitted}


@pytest.mark.parametrize("job", list(GOLDEN))
def test_rounds_local_iters_and_sim_time_are_the_recorded_ones(handles, job):
    res = handles[job].result
    iters, local_iters, sim_time = GOLDEN[job]
    if local_iters is None:
        parts = KMEANS_PARTS if job.startswith("kmeans") else PARTS
        local_iters = [[1] * parts] * iters
    assert res.converged and res.global_iters == iters
    assert [list(r.local_iters) for r in res.history] == local_iters
    assert res.sim_time == sim_time
