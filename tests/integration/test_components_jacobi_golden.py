"""Golden accounting of connected components and the Jacobi solver.

Both apps x general / eager x a chunk and a hash partition, each on its
own priced ``SimCluster``: the global rounds taken, the local
iterations summed over every round and partition, the simulated time
and a digest of the final state, as literals recorded at the commit
before ``ComponentsBlockSpec`` / ``JacobiBlockSpec`` ran their local
step through ``run_local_block``.  ``test_block_path_golden.py`` pins
PageRank, SSSP and k-means the same way.  Chunk and hash partitions
keep the literals independent of the multilevel partitioner's
CPU-dependent tie order.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.apps import (
    components_reference,
    components_spec,
    jacobi_spec,
    make_diagonally_dominant_system,
)
from repro.cluster import SimCluster
from repro.graph import chunk_partition, hash_partition, preferential_attachment

#: (app, partition, mode) -> (global_iters, local iterations summed over
#: the run, sim_time, sha1 prefix of the final state's bytes).
GOLDEN = {
    ("components", "chunk", "general"): (6, 36, 149.4755706, "97d55e5d20616ca6"),
    ("components", "chunk", "eager"): (3, 52, 74.73478955, "97d55e5d20616ca6"),
    ("components", "hash", "general"): (6, 30, 149.4490506, "97d55e5d20616ca6"),
    ("components", "hash", "eager"): (4, 65, 99.63461860000001, "97d55e5d20616ca6"),
    ("jacobi", "chunk", "general"): (34, 204, 846.8369757500006, "c4453995d3ee3418"),
    ("jacobi", "chunk", "eager"): (17, 1121, 423.68498537499966, "86f78dd5ad8bb75f"),
    ("jacobi", "hash", "general"): (34, 170, 846.8294490000017, "a567a34400948ab1"),
    ("jacobi", "hash", "eager"): (32, 861, 797.0777420000009, "9128c82d3fabbb8c"),
}


@pytest.fixture(scope="module")
def graph():
    return preferential_attachment(300, num_conn=3, locality_prob=0.9,
                                   community_mean=30, seed=5)


def _partition(graph, name):
    return chunk_partition(graph, 6) if name == "chunk" else hash_partition(graph, 5)


@pytest.mark.parametrize("app,part_name,mode", list(GOLDEN))
def test_rounds_local_iters_sim_time_and_state_are_the_recorded_ones(
        graph, app, part_name, mode):
    part = _partition(graph, part_name)
    if app == "components":
        res = components_spec(graph, part, mode=mode).run(SimCluster())
        state = res.state
        assert state.dtype == np.int64
        assert np.array_equal(state, components_reference(graph))
    else:
        system = make_diagonally_dominant_system(part, seed=1)
        res = jacobi_spec(system, part, mode=mode).run(SimCluster())
        state = res.state
        assert state.dtype == np.float64 and system.residual_norm(state) < 1e-6
    iters, local_iters, sim_time, digest = GOLDEN[app, part_name, mode]
    assert res.converged and res.global_iters == iters
    assert sum(sum(r.local_iters) for r in res.history) == local_iters
    if mode == "general":
        assert all(set(r.local_iters) <= {0, 1} for r in res.history)
    assert res.sim_time == sim_time
    assert hashlib.sha1(state.tobytes()).hexdigest()[:16] == digest
