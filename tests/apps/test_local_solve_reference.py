"""``local_solve`` against the loop bodies it replaced.

The ``*_reference`` functions below are the ``local_solve`` bodies of
the commit before the block specs moved onto ``repro.graph.split_edges``
— per-edge ``1/outdeg`` gathered every sweep, two edge-sized temporaries
per sweep, a 2-D ``np.add.at`` for the k-means sums — reading the same
per-part arrays (``tests/graph/test_edge_blocks.py`` pins those against
the deleted builders).  The specs must return the same
:class:`LocalSolveReport`, field by field, bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import (
    ComponentsBlockSpec,
    JacobiBlockSpec,
    KMeansBlockSpec,
    PageRankBlockSpec,
    SsspBlockSpec,
    make_diagonally_dominant_system,
)
from repro.apps.kmeans import assign_points
from repro.core import LocalSolveReport
from repro.graph import (
    DiGraph,
    Partition,
    attach_random_weights,
    chunk_partition,
    hash_partition,
    multilevel_partition,
)

from tests.inputs import gaussian_mixture

RECORD_BYTES = 16


def _empty(part_id, nodes):
    return LocalSolveReport(partition=part_id, updates=(nodes, nodes),
                            local_iters=0, per_iter_ops=[],
                            shuffle_bytes=0, update_nbytes=0)


def _records(b, max_local_iters):
    out_cut, out_all = len(b.cut_src), len(b.int_src) + len(b.cut_src)
    return (out_all if max_local_iters == 1 else out_cut) + len(b.nodes)


def pagerank_reference(spec, part_id, state, *, max_local_iters):
    b = spec._blocks[part_id]
    nodes = b.nodes
    if len(nodes) == 0:
        return _empty(part_id, nodes)
    d = spec.damping
    x = state[nodes].copy()
    b_ext = np.zeros(len(nodes), dtype=np.float64)
    if len(b.in_src):
        np.add.at(b_ext, b.in_dst,
                  state[b.in_src] * spec.inv_outdeg[b.in_src])
    base = (1.0 - d) + d * b_ext
    inv_out_local = spec.inv_outdeg[nodes]

    per_iter_ops: list[float] = []
    iters = 0
    while iters < max_local_iters:
        contrib = np.zeros(len(nodes), dtype=np.float64)
        if len(b.int_src):
            np.add.at(contrib, b.int_dst,
                      x[b.int_src] * inv_out_local[b.int_src])
        x_new = base + d * contrib
        per_iter_ops.append(float(len(b.int_src) + len(nodes)))
        iters += 1
        delta = float(np.abs(x_new - x).max())
        x = x_new
        if delta < spec.tol:
            break
    return LocalSolveReport(
        partition=part_id, updates=(nodes, x), local_iters=iters,
        per_iter_ops=per_iter_ops,
        shuffle_bytes=_records(b, max_local_iters) * RECORD_BYTES,
        update_nbytes=int(x.nbytes))


def sssp_reference(spec, part_id, state, *, max_local_iters):
    b = spec._blocks[part_id]
    nodes = b.nodes
    if len(nodes) == 0:
        return _empty(part_id, nodes)
    x = state[nodes].copy()
    ext_floor = np.full(len(nodes), np.inf, dtype=np.float64)
    if len(b.in_src):
        np.minimum.at(ext_floor, b.in_dst, state[b.in_src] + b.in_w)

    per_iter_ops: list[float] = []
    iters = 0
    while iters < max_local_iters:
        x_new = np.minimum(x, ext_floor)
        if len(b.int_src):
            np.minimum.at(x_new, b.int_dst, x[b.int_src] + b.int_w)
        per_iter_ops.append(float(len(b.int_src) + len(nodes)))
        iters += 1
        changed = x_new < x
        x = x_new
        if not np.any(changed):
            break
    changed = int(np.count_nonzero(x < state[nodes]))
    return LocalSolveReport(
        partition=part_id, updates=(nodes, x), local_iters=iters,
        per_iter_ops=per_iter_ops,
        shuffle_bytes=_records(b, max_local_iters) * RECORD_BYTES,
        update_nbytes=changed * 8)


def components_reference(spec, part_id, state, *, max_local_iters):
    b = spec._blocks[part_id]
    nodes, i_src, i_dst, e_src, e_dst = (
        b.nodes, b.int_src, b.int_dst, b.in_src, b.in_dst)
    if len(nodes) == 0:
        return _empty(part_id, nodes)
    x = state[nodes].copy()
    ext_floor = np.full(len(nodes), spec.graph.num_nodes, dtype=np.int64)
    if len(e_src):
        np.minimum.at(ext_floor, e_dst, state[e_src])
    per_iter_ops: list[float] = []
    iters = 0
    while iters < max_local_iters:
        x_new = np.minimum(x, ext_floor)
        if len(i_src):
            np.minimum.at(x_new, i_dst, x[i_src])
        per_iter_ops.append(float(len(i_src) + len(nodes)))
        iters += 1
        changed = bool(np.any(x_new < x))
        x = x_new
        if not changed:
            break
    changed = int(np.count_nonzero(x < state[nodes]))
    return LocalSolveReport(
        partition=part_id, updates=(nodes, x), local_iters=iters,
        per_iter_ops=per_iter_ops,
        shuffle_bytes=_records(b, max_local_iters) * RECORD_BYTES,
        update_nbytes=changed * 8)


def jacobi_reference(spec, part_id, state, *, max_local_iters):
    b = spec._blocks[part_id]
    nodes = b.nodes
    i_r, i_c, i_v = b.int_src, b.int_dst, b.int_w
    e_r, e_c, e_v = b.cut_src, b.cut_dst, b.cut_w
    if len(nodes) == 0:
        return _empty(part_id, nodes)
    sysm = spec.system
    b_eff = sysm.b[nodes].copy()
    if len(e_r):
        np.add.at(b_eff, e_r, -e_v * state[e_c])
    diag = sysm.diag[nodes]
    x = state[nodes].copy()
    per_iter_ops: list[float] = []
    iters = 0
    while iters < max_local_iters:
        rx = np.zeros(len(nodes))
        if len(i_r):
            np.add.at(rx, i_r, i_v * x[i_c])
        x_new = (b_eff - rx) / diag
        per_iter_ops.append(float(len(i_r) + len(nodes)))
        iters += 1
        delta = float(np.abs(x_new - x).max())
        x = x_new
        if delta < spec.tol:
            break
    records = len(nodes) + len(e_r)
    return LocalSolveReport(
        partition=part_id, updates=(nodes, x), local_iters=iters,
        per_iter_ops=per_iter_ops, shuffle_bytes=records * RECORD_BYTES,
        update_nbytes=int(x.nbytes))


def kmeans_reference(spec, part_id, state, *, max_local_iters):
    idx = spec._parts[part_id]
    pts = spec.points[idx]
    centroids = np.asarray(state, dtype=np.float64).copy()
    per_iter_ops: list[float] = []
    iters = 0
    sums = np.zeros_like(centroids)
    counts = np.zeros(spec.k, dtype=np.float64)
    while iters < max_local_iters:
        assignment = assign_points(pts, centroids)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignment, pts)
        counts = np.bincount(assignment, minlength=spec.k).astype(np.float64)
        new_centroids = centroids.copy()
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        per_iter_ops.append(float(len(pts) + spec.k))
        iters += 1
        shift = float(np.linalg.norm(new_centroids - centroids, axis=1).max())
        centroids = new_centroids
        if shift < spec.threshold:
            break
    return LocalSolveReport(
        partition=part_id, updates=(sums, counts), local_iters=iters,
        per_iter_ops=per_iter_ops,
        shuffle_bytes=spec.k * (spec.points.shape[1] + 1) * 8)


def assert_reports_equal(got: LocalSolveReport, want: LocalSolveReport):
    assert got.partition == want.partition
    assert got.local_iters == want.local_iters
    assert got.per_iter_ops == want.per_iter_ops
    assert all(type(o) is float for o in got.per_iter_ops)
    assert got.shuffle_bytes == want.shuffle_bytes
    assert got.update_nbytes == want.update_nbytes
    assert len(got.updates) == len(want.updates)
    for a, b in zip(got.updates, want.updates):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _run_rounds(spec, reference, max_local_iters, rounds=4):
    """Drive ``rounds`` global rounds, comparing every part's report."""
    state = spec.init_state()
    for _ in range(rounds):
        before = state.copy()
        reports = []
        for p in range(spec.num_partitions()):
            got = spec.local_solve(p, state, max_local_iters=max_local_iters)
            want = reference(spec, p, state, max_local_iters=max_local_iters)
            assert_reports_equal(got, want)
            reports.append(got)
        # neither side may write through the state it was handed
        assert state.tobytes() == before.tobytes()
        state = spec.global_combine(state, reports)[0]


def _messy_graph(seed: int, n: int = 60, m: int = 260) -> DiGraph:
    """Self-loops, parallel edges, dangling and isolated nodes."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n - 6, m)         # the last nodes have no out-edge
    dst = rng.integers(0, n - 3, m)         # ... and three of them no edge at all
    src[:8] = dst[:8]                       # self-loops
    src[8:16], dst[8:16] = src[16:24], dst[16:24]   # parallel edges
    return DiGraph(n, src, dst)


def _partitions(g: DiGraph) -> "list[Partition]":
    return [
        multilevel_partition(g, 4, seed=0),
        hash_partition(g, 7),
        chunk_partition(g, 1),
        # k > n: every node alone in its part, the other parts empty
        Partition(g, np.arange(g.num_nodes), g.num_nodes + 5),
    ]


LOCAL_ITERS = [1, 50]


@pytest.mark.parametrize("max_local_iters", LOCAL_ITERS)
class TestBitwiseTheReplacedBodies:
    def test_pagerank(self, small_graph, small_partition, max_local_iters):
        _run_rounds(PageRankBlockSpec(small_graph, small_partition),
                    pagerank_reference, max_local_iters)
        g = _messy_graph(1)
        for part in _partitions(g):
            _run_rounds(PageRankBlockSpec(g, part), pagerank_reference,
                        max_local_iters)

    def test_sssp(self, weighted_graph, weighted_partition, small_partition,
                  max_local_iters):
        _run_rounds(SsspBlockSpec(weighted_graph, weighted_partition),
                    sssp_reference, max_local_iters, rounds=6)
        # the weighted twin over the unweighted graph's partition, as
        # ``cli.py schedule`` passes it
        assert small_partition.graph is not weighted_graph
        _run_rounds(SsspBlockSpec(weighted_graph, small_partition, source=3),
                    sssp_reference, max_local_iters, rounds=6)
        g = attach_random_weights(_messy_graph(2), low=1.0, high=10.0, seed=5)
        for part in _partitions(g):
            _run_rounds(SsspBlockSpec(g, part, source=int(g.out_dst[0])),
                        sssp_reference, max_local_iters, rounds=6)

    def test_components(self, small_graph, small_partition, max_local_iters):
        _run_rounds(ComponentsBlockSpec(small_graph, small_partition),
                    components_reference, max_local_iters)
        g = _messy_graph(3)
        for part in _partitions(g):
            _run_rounds(ComponentsBlockSpec(g, part), components_reference,
                        max_local_iters)

    def test_jacobi(self, small_graph, small_partition, max_local_iters):
        system = make_diagonally_dominant_system(small_partition, seed=4)
        _run_rounds(JacobiBlockSpec(system, small_partition),
                    jacobi_reference, max_local_iters)
        g = _messy_graph(4)
        for part in _partitions(g):
            system = make_diagonally_dominant_system(part, seed=6)
            _run_rounds(JacobiBlockSpec(system, part), jacobi_reference,
                        max_local_iters)

    def test_kmeans(self, max_local_iters):
        points, _ = gaussian_mixture(600, 5, 4, seed=2)
        for parts, k in ((7, 4), (52, 8), (600, 3)):
            spec = KMeansBlockSpec(points, k, num_partitions=parts, seed=1)
            _run_rounds(spec, kmeans_reference, max_local_iters, rounds=3)


class TestDegenerateParts:
    """The shapes an empty edge set takes.  ``np.bincount(idx,
    weights=<empty>)`` returns **int64**, so a scatter respelled with it
    must not meet an empty edge set: these parts are where it would."""

    def test_isolated_node_alone_in_its_part(self):
        # node 3 has no edge at all and is the whole of part 1
        g = DiGraph(4, [0, 1, 2], [1, 2, 0])
        part = Partition(g, np.array([0, 0, 0, 1]), 2)
        spec = PageRankBlockSpec(g, part)
        for iters in LOCAL_ITERS:
            rep = spec.local_solve(1, spec.init_state(), max_local_iters=iters)
            # rank 1 -> 0.15, then a second sweep sees no change
            assert rep.local_iters == min(iters, 2)
            assert rep.per_iter_ops == [1.0] * rep.local_iters
            assert rep.updates[1].dtype == np.float64
            assert rep.updates[1].tolist() == [1.0 - spec.damping]
            assert rep.shuffle_bytes == RECORD_BYTES
            _run_rounds(spec, pagerank_reference, iters)
            _run_rounds(SsspBlockSpec(g, part), sssp_reference, iters)
            _run_rounds(ComponentsBlockSpec(g, part), components_reference,
                        iters)

    def test_part_with_no_incoming_edges(self):
        # every cut edge leaves part 0: it has internal and outgoing
        # edges but nothing lands on it, part 1 has no internal edge
        g = DiGraph(4, [0, 1, 0, 1], [1, 0, 2, 3])
        part = Partition(g, np.array([0, 0, 1, 1]), 2)
        pr = PageRankBlockSpec(g, part)
        assert len(pr._blocks[0].in_src) == 0 and len(pr._blocks[0].int_src) == 2
        assert len(pr._blocks[1].int_src) == 0 and len(pr._blocks[1].in_src) == 2
        for iters in LOCAL_ITERS:
            for p in (0, 1):
                rep = pr.local_solve(p, pr.init_state(), max_local_iters=iters)
                assert rep.updates[1].dtype == np.float64
            _run_rounds(pr, pagerank_reference, iters)
            _run_rounds(SsspBlockSpec(g, part), sssp_reference, iters)

    def test_empty_part(self):
        g = DiGraph(3, [0, 1], [1, 2])
        part = Partition(g, np.arange(3), 5)      # parts 3 and 4 hold nothing
        system = make_diagonally_dominant_system(part, seed=0)
        for spec in (PageRankBlockSpec(g, part), SsspBlockSpec(g, part),
                     ComponentsBlockSpec(g, part),
                     JacobiBlockSpec(system, part)):
            rep = spec.local_solve(4, spec.init_state(), max_local_iters=50)
            assert rep.local_iters == 0 and rep.per_iter_ops == []
            assert rep.shuffle_bytes == 0 and rep.update_nbytes == 0
            assert len(rep.updates[0]) == 0 and len(rep.updates[1]) == 0

    def test_kmeans_cluster_that_receives_no_point(self):
        # the third centroid is far from every point of every subset
        points = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
        spec = KMeansBlockSpec(points, 3, num_partitions=2, seed=0)
        spec.init_state()
        state = np.array([[0.0, 0.0], [5.0, 5.0], [100.0, 100.0]])
        for iters in LOCAL_ITERS:
            for p in range(spec.num_partitions()):
                got = spec.local_solve(p, state, max_local_iters=iters)
                sums, counts = got.updates
                assert sums.dtype == np.float64 and sums.shape == (3, 2)
                assert counts[2] == 0.0 and sums[2].tolist() == [0.0, 0.0]
                assert_reports_equal(got, kmeans_reference(
                    spec, p, state, max_local_iters=iters))
        new_state, _, _ = spec.global_combine(state, [
            spec.local_solve(p, state, max_local_iters=1)
            for p in range(spec.num_partitions())])
        assert new_state[2].tolist() == [100.0, 100.0]   # kept, not NaN
