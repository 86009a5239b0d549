"""Golden pins of graph preparation at the benchmark's sizes.

``tests/integration/test_block_path_golden.py``'s literals (rounds,
``sim_seconds``, digests) are functions of the generated graph and its
partition, two layers away from what produces them; these pin the cause
directly.  Recorded at the commit *before* the generator and the
partitioner were rewritten for speed (PR 19's parent), at perfbench's
(scale, k) pairs: ``kv-eager-serial`` 0.004 / 8, ``sim-figures``
0.04 / 5, 20, 80, ``sim-faults`` 0.055 / 24.

The ``assign`` literals are also a function of the CPU: refinement
orders tied gains with NumPy's default *unstable* argsort, whose tie
order follows the SIMD dispatch (``docs/graph_prep.md``, "Parked
defect").  They were recorded on an AVX-512 host, like every other
golden literal in this repository.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.graph import make_paper_graph, multilevel_partition


def sha1(*arrays: np.ndarray) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


#: scale -> (nodes, edges, sha1 of src + dst + weight bytes,
#:           {k: sha1 of multilevel_partition(seed=0).assign bytes})
GOLDEN = {
    0.004: (1120, 12375, "e97bef42aa30480de6049a13c8115c00a40698b4",
            {8: "ed1f3ab59669298003708608bd16b1bfc6df426b"}),
    0.04: (11200, 124098, "20c9006b054941c4ab54af87ea872f68952173de",
           {5: "58b490daa4d77b5e3164e39f14a5e82096336dd8",
            20: "99a5a00cad01457fc412f7aab51e2376969d7917",
            80: "0ec0a42ce4210f6846c7ddac36352fbdf84ede6b"}),
    0.055: (15400, 170781, "78663ea2529104cada82cda77686fb22e140c735",
            {24: "8ee30d815e8b07ffaaed1af9b828e5c04004f081"}),
}


@pytest.mark.parametrize("scale", sorted(GOLDEN))
def test_graph_a_and_its_partitions(scale):
    nodes, edges, edge_sha, assigns = GOLDEN[scale]
    graph = make_paper_graph("A", scale=scale, seed=0)
    assert (graph.num_nodes, graph.num_edges) == (nodes, edges)
    assert sha1(*graph.edge_arrays()) == edge_sha
    for k, assign_sha in assigns.items():
        assign = multilevel_partition(graph, k, seed=0).assign
        assert assign.dtype == np.int64
        assert sha1(assign) == assign_sha, k
