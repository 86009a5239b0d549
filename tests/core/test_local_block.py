"""The block-level local loop vs the per-record oracle.

``run_local_block`` must be *bitwise* ``run_local_mapreduce`` — tables
compared with ``==`` (never ``allclose``), iteration counts, per-iteration
ops, the convergence flag — and an ``EngineBackend`` run of a spec that
declares the block step must be indistinguishable from a run of its
``per_record`` view on every shuffle path, reducer count and executor.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.apps.jacobi import JacobiBlockSpec, SparseSystem
from repro.apps.pagerank import PageRankBlockSpec, PageRankKVSpec
from repro.apps.sssp import SsspBlockSpec, SsspKVSpec
from repro.cluster import SimCluster
from repro.core import (
    DriverConfig,
    EngineBackend,
    GmapFunction,
    IterationLoop,
    per_record,
    run_local_block,
    run_local_mapreduce,
)
from repro.core.localmr import scatter_fold
from repro.engine import MapReduceRuntime, TaskContext
from repro.graph import (
    DiGraph,
    Partition,
    attach_random_weights,
    multilevel_partition,
    preferential_attachment,
)

from tests.apps.test_local_solve_reference import _messy_graph, _partitions

CAPS = (1, 2, 3, 7, 10_000)


def adjacency(spec, u):
    """Node ``u``'s ``(internal, external)`` successor lists as the
    per-record ``lmap`` / ``gmap_emit`` walk them, read off the graph:
    node ids for PageRank, ``(node, weight)`` pairs for SSSP."""
    g, assign = spec.graph, spec.partition.assign
    lo, hi = g.out_ptr[u], g.out_ptr[u + 1]
    succ = g.out_dst[lo:hi]
    same = assign[succ] == assign[u]
    if isinstance(spec, PageRankKVSpec):
        return succ[same].tolist(), succ[~same].tolist()
    w = g.out_w[lo:hi]
    return (list(zip(succ[same].tolist(), w[same].tolist())),
            list(zip(succ[~same].tolist(), w[~same].tolist())))


def graph_records(spec, part_id, state) -> list:
    """The per-record loop's input for one part, built here from the
    graph and the state rows: ``(u, (value, ext, internal, external))``
    plus PageRank's ``1/outdeg``."""
    out = []
    for u in spec.partition.parts()[part_id].tolist():
        value = (*state[u].tolist(), *adjacency(spec, u))
        if isinstance(spec, PageRankKVSpec):
            value += (float(spec.inv_outdeg[u]),)
        out.append((u, value))
    return out


def block_table(records, cols) -> dict:
    """The hashtable the per-record loop would return, rebuilt from its
    input ``records`` and the block loop's final columns: each value's
    leading fields replaced by its row, the static rest carried over."""
    rows = zip(*(c.tolist() for c in cols))
    return {k: (*row, *v[len(cols):]) for (k, v), row in zip(records, rows)}


def assert_same_local_run(spec, part_id, state, cap):
    """One partition, one cap: block loop == per-record loop, exactly."""
    records = graph_records(spec, part_id, state)
    assert per_record(spec).partition_input(part_id, state) == records
    block = run_local_block(spec, part_id, spec.local_columns(
        part_id, spec.partition_input(part_id, state)), max_local_iters=cap)
    oracle = run_local_mapreduce(spec, records, max_local_iters=cap)
    assert block_table(records, block.table) == oracle.table
    assert list(block_table(records, block.table)) == list(oracle.table)
    assert block.local_iters == oracle.local_iters
    assert block.per_iter_ops == oracle.per_iter_ops
    assert block.converged == oracle.converged
    return block


def assert_same_everywhere(spec, states=None):
    for state in states or [spec.initial_state()]:
        for cap in CAPS:
            for p in range(spec.num_partitions()):
                assert_same_local_run(spec, p, state, cap)


@pytest.fixture(scope="module")
def graphs():
    g = preferential_attachment(240, num_conn=3, locality_prob=0.9,
                                community_mean=30, seed=5)
    return g, attach_random_weights(g, low=0.5, high=9.0, seed=6)


def _mid_run_state(spec):
    """A state two eager rounds in (ranks off 1.0, a partial frontier)."""
    loop = IterationLoop(EngineBackend(per_record(spec), columnar=False),
                         DriverConfig(mode="eager", max_global_iters=2))
    return loop.run().state


class TestLocalLoopMatrix:
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_pagerank(self, graphs, k):
        g, _ = graphs
        spec = PageRankKVSpec(g, multilevel_partition(g, k, seed=0))
        assert_same_everywhere(spec, [spec.initial_state(),
                                      _mid_run_state(spec)])

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_sssp(self, graphs, k):
        _, wg = graphs
        spec = SsspKVSpec(wg, multilevel_partition(wg, k, seed=0), source=3)
        assert_same_everywhere(spec, [spec.initial_state(),
                                      _mid_run_state(spec)])

    def test_sssp_live_edge_count_varies_per_iteration(self, graphs):
        """SSSP's ops are not a constant per iteration: the frontier
        grows, so the contribution-record count does."""
        _, wg = graphs
        spec = SsspKVSpec(wg, multilevel_partition(wg, 1, seed=0), source=3)
        res = assert_same_local_run(spec, 0, spec.initial_state(), 10_000)
        assert len(set(res.per_iter_ops)) > 1


class TestOneLoopForBothLayers:
    """The simulator's ``local_solve`` is the engine's block step: from
    the same ``(value, ext)`` columns — ``ext`` folded from the in-view
    as ``local_solve`` folds it — ``run_local_block`` over the KV spec's
    hooks yields the block spec's ranks / distances to the byte, in as
    many local iterations, through several global rounds."""

    def _compare(self, block_spec, kv_spec, fold, identity, cap):
        state = block_spec.init_state()
        for _ in range(4):
            reports = []
            for p in range(block_spec.num_partitions()):
                got = block_spec.local_solve(p, state, max_local_iters=cap)
                reports.append(got)
                b = kv_spec._blocks[p]
                if len(b.nodes) == 0:
                    assert got.local_iters == 0
                    continue
                ext = np.full(len(b.nodes), identity)
                fold(ext, b.in_dst, state[b.in_src], b.in_w)
                want = run_local_block(kv_spec, p, (state[b.nodes], ext),
                                       max_local_iters=cap)
                assert got.updates[1].tobytes() == want.table[0].tobytes()
                assert got.local_iters == want.local_iters
            state = block_spec.global_combine(state, reports)[0]

    @pytest.mark.parametrize("cap", [1, 2, 50])
    def test_pagerank(self, cap):
        def fold(ext, rows, values, w):
            np.add.at(ext, rows, values * w)

        g = _messy_graph(1)
        for part in _partitions(g):
            self._compare(PageRankBlockSpec(g, part), PageRankKVSpec(g, part),
                          fold, 0.0, cap)

    @pytest.mark.parametrize("cap", [1, 2, 50])
    def test_sssp(self, cap):
        def fold(ext, rows, values, w):
            np.minimum.at(ext, rows, values + w)

        g = attach_random_weights(_messy_graph(2), low=1.0, high=10.0, seed=5)
        source = int(g.out_dst[0])
        for part in _partitions(g):
            self._compare(SsspBlockSpec(g, part, source=source),
                          SsspKVSpec(g, part, source=source),
                          fold, np.inf, cap)


def _hub_graph(fan_in: int) -> "tuple[DiGraph, Partition]":
    """``fan_in`` sources (each with a different out-degree, so their
    contributions differ) all pointing at node 0, one partition; node 1
    has no in-edge at all."""
    src, dst = [], []
    n = fan_in + 2
    for i in range(2, n):
        src.append(i)
        dst.append(0)
        for j in range(i % 5):  # vary out-degree -> vary rank/outdeg
            src.append(i)
            dst.append(2 + (i + j) % fan_in)
    g = DiGraph(n, src, dst)
    return g, Partition(g, np.zeros(n, dtype=np.int64), 1)


def _assert_sum_fold(spec, into_target, seed):
    """A sum app's step folds with one CSR mat-vec that is the
    per-record fold — ``np.add.at`` over the part's internal edges from
    0 — to the bit, on every part, then applies ``lreduce``'s epilogue,
    and counts one record per internal edge."""
    rng = np.random.default_rng(seed)
    for p, b in enumerate(spec._blocks):
        rows, gathered = ((b.int_dst, b.int_src) if into_target
                          else (b.int_src, b.int_dst))
        n = len(b.nodes)
        for scale in (1.0, 1e-3, 1e7):
            x = rng.uniform(-1.0, 1.0, n) * scale
            frozen = rng.uniform(-1.0, 1.0, n)
            want = np.zeros(n)
            np.add.at(want, rows, b.int_w * x[gathered])
            if into_target:  # PageRank: ((1-d) + d*ext) + d*contrib
                cols, d = (x, frozen), spec.damping
                want = ((1.0 - d) + d * frozen) + d * want
            else:  # Jacobi: (b_eff - R_int x) / diag
                diag = rng.uniform(1.0, 2.0, n)
                cols, want = (x, frozen, diag), (frozen - want) / diag
            got, records, _ = spec.local_step(p, cols)(x)
            assert got.tobytes() == want.tobytes()
            # the engine prices 3n + records per local iteration
            assert records == len(b.int_src)


class TestTraps:
    @pytest.mark.parametrize("fan_in", [8, 9, 129, 200])
    def test_many_internal_in_edges(self, fan_in):
        """The pairwise-sum thresholds: a sorted ``reduceat`` fold of
        >= 8 (and of >= 129) addends rounds differently from the
        sequential ``contrib += payload``; ``np.add.at`` must not."""
        g, part = _hub_graph(fan_in)
        assert g.in_degree()[0] == fan_in
        assert_same_everywhere(PageRankKVSpec(g, part))
        rng = np.random.default_rng(fan_in)
        wg = g.with_weights(rng.uniform(0.1, 3.0, g.num_edges))
        assert_same_everywhere(SsspKVSpec(wg, Partition(wg, part.assign, 1),
                                          source=2))

    def test_no_internal_in_edge_keeps_identity(self):
        """A row no contribution reaches folds to the aggregator's
        identity: 0.0 for the sum (rank = 1-d + d*ext), inf for the min
        (distance unchanged)."""
        g, part = _hub_graph(8)
        assert g.in_degree()[1] == 0
        pr = PageRankKVSpec(g, part)
        res = assert_same_local_run(pr, 0, pr.initial_state(), 3)
        assert res.table[0][1] == (1.0 - pr.damping)  # row 1 is node 1
        ss = SsspKVSpec(g, part, source=2)
        res = assert_same_local_run(ss, 0, ss.initial_state(), 10_000)
        assert res.table[0][1] == float("inf")

    def test_sum_fold_keeps_parallel_edges(self):
        """PageRank's parallel edges stay separate terms of the CSR
        fold, in stored order (a matrix built from COO triples merges
        them into one and fails here)."""
        rng = np.random.default_rng(3)
        n = 60
        src = rng.integers(0, n, 240)
        dst = np.where(rng.random(240) < 0.4, 0, rng.integers(0, n, 240))
        reps = rng.integers(1, 5, 240)  # each edge one to four times over
        g = DiGraph(n, np.repeat(src, reps), np.repeat(dst, reps))
        for part in (Partition(g, np.zeros(n, dtype=np.int64), 1),
                     Partition(g, np.arange(n) % 3, 3)):
            _assert_sum_fold(PageRankKVSpec(g, part), True, 0)
            _assert_sum_fold(PageRankBlockSpec(g, part), True, 1)

    def test_sum_fold_keeps_duplicate_entries(self):
        """Jacobi's duplicate ``(row, col)`` entries of different values,
        listed out of row order, stay separate terms of the CSR fold."""
        rng = np.random.default_rng(4)
        n, m = 50, 400
        rows = rng.integers(0, n, m)
        cols = (rows + rng.integers(1, n, m)) % n  # no diagonal entry
        # every entry once more, with another value, in reverse order
        rows = np.concatenate([rows, rows[::-1]])
        cols = np.concatenate([cols, cols[::-1]])
        vals = -rng.uniform(0.1, 10.0, len(rows))
        offsum = np.zeros(n)
        np.add.at(offsum, rows, np.abs(vals))
        system = SparseSystem(n=n, rows=rows, cols=cols, vals=vals,
                              diag=2.0 * offsum + 1.0, b=rng.uniform(-1, 1, n))
        g = DiGraph(n, rows, cols)
        for part in (Partition(g, np.zeros(n, dtype=np.int64), 1),
                     Partition(g, np.arange(n) % 4, 4)):
            _assert_sum_fold(JacobiBlockSpec(system, part), False, 2)

    @pytest.mark.parametrize("agg,fold", [("min", np.minimum),
                                          ("max", np.maximum)])
    def test_integer_column_keeps_its_dtype(self, agg, fold):
        """An int64 column folds from the dtype's own extreme, not from
        a float ``inf``: a row no record reaches comes back int64 and
        unchanged, even where float64 cannot hold its value."""
        class IntLabels:
            local_agg = agg

            def local_step(self, part_id, cols):
                fold_one = scatter_fold(agg, cols[0])

                def step(x):
                    acc, records = fold_one(np.array([0]),
                                            np.array([3], dtype=np.int64))
                    fold(x, acc, out=acc)
                    return acc, records, bool((acc == x).all())

                return step

        far = 2**62 + 1 if agg == "min" else -(2**62 + 1)
        col = np.array([7 if agg == "min" else -7, far], dtype=np.int64)
        res = run_local_block(IntLabels(), 0, (col,), max_local_iters=10)
        out = res.table[0]
        assert out.dtype == np.int64
        assert out[1] == far
        assert out[0] == 3  # the one record beats ±7
        assert col.tolist()[1] == far  # the input column is not written

    def test_empty_partition(self):
        g = DiGraph(4, [0, 1, 2, 3], [1, 0, 3, 2])
        part = Partition(g, np.array([0, 0, 2, 2]), 3)  # part 1 is empty
        for spec in (PageRankKVSpec(g, part), SsspKVSpec(g, part, source=0)):
            state = spec.initial_state()
            assert spec.partition_input(1, state).shape == (0, 2)
            assert per_record(spec).partition_input(1, state) == []
            res = assert_same_local_run(spec, 1, state, 10_000)
            assert res.local_iters == 1 and res.converged
            assert res.per_iter_ops == [0.0]
            assert_same_everywhere(spec)

    def test_sssp_unreachable_and_remote_source(self):
        """inf - inf territory: a partition the source is not in (every
        distance inf, nothing to emit) and nodes no path reaches."""
        #  0 -> 1 -> 2   |   3 -> 4   5 (isolated);  source 0 in part 0
        g = DiGraph(6, [0, 1, 3], [1, 2, 4], [1.5, 2.5, 1.0])
        part = Partition(g, np.array([0, 0, 0, 1, 1, 1]), 2)
        spec = SsspKVSpec(g, part, source=0)
        assert_same_everywhere(spec)
        res = assert_same_local_run(spec, 1, spec.initial_state(), 10_000)
        assert res.converged and res.local_iters == 1
        assert np.isinf(res.table[0]).all()
        assert res.per_iter_ops == [9.0]  # 3 n, no live edge

    def test_parallel_edges_to_one_target(self):
        """Parallel edges are separate contribution records to one row
        (``ufunc.at`` is unbuffered: repeated indices all land)."""
        g = DiGraph(3, [0, 0, 0, 1, 1, 2], [1, 1, 1, 2, 2, 0],
                    [4.0, 2.0, 3.0, 1.0, 1.0, 7.0])
        part = Partition(g, np.zeros(3, dtype=np.int64), 1)
        assert_same_everywhere(PageRankKVSpec(g, part))
        spec = SsspKVSpec(g, part, source=0)
        assert_same_everywhere(spec)
        res = run_local_block(spec, 0, spec.local_columns(0, spec.partition_input(
            0, spec.initial_state())), max_local_iters=10_000)
        assert res.table[0].tolist() == [0.0, 2.0, 3.0]


class TestContract:
    def _spec(self, graphs):
        g, _ = graphs
        return PageRankKVSpec(g, multilevel_partition(g, 3, seed=0))

    def test_rejects_bad_cap(self, graphs):
        spec = self._spec(graphs)
        xs = spec.partition_input(0, spec.initial_state())
        with pytest.raises(ValueError, match="max_local_iters"):
            run_local_block(spec, 0, spec.local_columns(0, xs),
                            max_local_iters=0)

    def test_rejects_duplicate_key(self, graphs):
        """A repeated row is one row too many for the block loop, and a
        repeated key a duplicate for the per-record one."""
        spec = self._spec(graphs)
        state = spec.initial_state()
        xs = spec.partition_input(0, state)
        with pytest.raises(ValueError, match="partition"):
            spec.local_columns(0, np.vstack([xs, xs[:1]]))
        records = per_record(spec).partition_input(0, state)
        with pytest.raises(ValueError, match="duplicate key"):
            run_local_mapreduce(spec, records + records[:1],
                                max_local_iters=1)

    def test_rejects_xs_of_another_partition(self, graphs):
        """The static arrays describe one partition; another part's
        rows must not be silently solved against them."""
        spec = self._spec(graphs)
        state = spec.initial_state()
        sizes = spec.partition.part_sizes()
        assert len(set(sizes.tolist())) == len(sizes)
        for p in (1, 2):
            with pytest.raises(ValueError, match="partition"):
                spec.local_columns(0, spec.partition_input(p, state))

    def test_per_record_view_hides_only_the_declaration(self, graphs):
        spec = self._spec(graphs)
        view = per_record(spec)
        assert spec.local_agg == "sum" and view.local_agg is None
        assert view.damping == spec.damping
        assert view.num_partitions() == spec.num_partitions()
        back = pickle.loads(pickle.dumps(view))
        assert back.local_agg is None and back.tol == spec.tol

    @pytest.mark.parametrize("columnar", [False, True])
    @pytest.mark.parametrize("make", ["pagerank", "sssp"])
    def test_gmap_feeds_the_same_counters_and_records(self, graphs, make,
                                                      columnar):
        g, wg = graphs
        spec = (PageRankKVSpec(g, multilevel_partition(g, 3, seed=0))
                if make == "pagerank" else
                SsspKVSpec(wg, multilevel_partition(wg, 3, seed=0), source=3))
        state = spec.initial_state()
        oracle = per_record(spec)
        for cap in (1, 10_000):
            for p in range(3):
                got, want = TaskContext("m", 0), TaskContext("m", 0)
                GmapFunction(spec, cap, columnar=columnar)(
                    p, spec.partition_input(p, state), got)
                GmapFunction(oracle, cap, columnar=columnar)(
                    p, oracle.partition_input(p, state), want)
                assert got.counters.as_dict() == want.counters.as_dict()
                assert got.ops == want.ops
                assert got.output == want.output
                for a, b in zip(got.columnar_output, want.columnar_output,
                                strict=True):
                    assert a.keys.tobytes() == b.keys.tobytes()
                    assert a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("columnar", [False, True])
    def test_gmap_never_builds_the_table(self, graphs, monkeypatch,
                                         columnar):
        """On either shuffle path the block spec's gmap emits from its
        columns: no hashtable record is built, none is read."""
        spec = self._spec(graphs)

        def boom(*_a):
            raise AssertionError("per-node table built in the gmap")

        for name in ("table_records", "gmap_emit", "gmap_emit_columnar",
                     "lmap", "lreduce", "local_converged"):
            monkeypatch.setattr(spec, name, boom)
        xs = spec.partition_input(0, spec.initial_state())
        assert isinstance(xs, np.ndarray)
        ctx = TaskContext("m", 0)
        GmapFunction(spec, 5, columnar=columnar)(0, xs, ctx)
        assert len(ctx.columnar_output) == (1 if columnar else 0)
        assert bool(ctx.output) is not columnar

    def test_duck_typed_proxy_takes_the_block_loop(self, graphs, monkeypatch):
        """perfbench wraps the spec in a proxy that pre-binds public
        callables and forwards attributes; the gmap must read the
        declaration through it."""
        class Proxy:
            def __init__(self, inner):
                self._inner = inner
                for name in dir(inner):
                    attr = getattr(inner, name)
                    if not name.startswith("_") and callable(attr):
                        self.__dict__[name] = attr

            def __getattr__(self, name):
                return getattr(self._inner, name)

        spec = self._spec(graphs)
        monkeypatch.setattr(spec, "lmap", None)  # the oracle must not run
        xs = spec.partition_input(0, spec.initial_state())
        got, want = TaskContext("m", 0), TaskContext("m", 0)
        GmapFunction(Proxy(spec), 10_000)(0, xs, got)
        GmapFunction(self._spec(graphs), 10_000)(0, xs, want)
        assert got.output == want.output and got.ops == want.ops


class TestStaticArraysShipWithTheSpec:
    """The arrays are built at construction, not lazily in whichever
    copy runs the gmap — a worker's unpickled copy already has them."""

    @staticmethod
    def _weighted(spec, u, internal):
        """Node ``u``'s internal (or external) out-edges as ``(target,
        weight)`` pairs, read off the graph; an unweighted (PageRank)
        edge carries ``gmap_emit``'s factor ``1/outdeg`` of its
        source."""
        adj = adjacency(spec, u)[0 if internal else 1]
        if isinstance(spec, PageRankKVSpec):
            return [(v, float(spec.inv_outdeg[u])) for v in adj]
        return adj

    def _lazy_reference(self, spec, p):
        """The emission arrays as the lazy per-node loop built them."""
        nodes = [int(u) for u in spec.partition.parts()[p]]
        adj = [self._weighted(spec, u, False) for u in nodes]
        counts = [len(a) for a in adj]
        dst = [v for a in adj for v, _ in a]
        w = [x for a in adj for _, x in a]
        return nodes, np.repeat(np.arange(len(nodes)), counts), dst, w

    @pytest.mark.parametrize("make", ["pagerank", "sssp"])
    def test_pickle_round_trip(self, graphs, make):
        g, wg = graphs
        spec = (PageRankKVSpec(g, multilevel_partition(g, 3, seed=0))
                if make == "pagerank" else
                SsspKVSpec(wg, multilevel_partition(wg, 3, seed=0), source=3))
        shipped = pickle.loads(pickle.dumps(spec))
        for p in range(3):
            here, there = spec._blocks[p], shipped._blocks[p]
            for a, b in zip(here, there, strict=True):
                assert np.array_equal(a, b)
            nodes, src, dst, w = self._lazy_reference(spec, p)
            assert there.nodes.tolist() == nodes
            assert there.nodes.dtype == np.int64
            assert there.cut_src.tolist() == src.tolist()
            assert there.cut_dst.tolist() == dst
            assert there.cut_w.tolist() == w
            # ... and the internal edges are the adjacency lists lmap walks.
            row = {u: i for i, u in enumerate(nodes)}
            internal = [(row[u], row[v], w) for u in nodes
                        for v, w in self._weighted(spec, u, True)]
            assert list(zip(there.int_src.tolist(), there.int_dst.tolist(),
                            there.int_w.tolist())) == internal


def _state_bytes(state, n):
    return np.array([state[u] for u in range(n)], dtype=np.float64).tobytes()


@pytest.fixture(scope="module", params=["serial", "threads", "processes"])
def runtime(request):
    with MapReduceRuntime(request.param, workers=2) as rt:
        yield rt


class TestEndToEnd:
    """``IterationLoop(EngineBackend(spec))`` vs the same loop over
    ``per_record(spec)``: nothing observable may differ."""

    @pytest.fixture(scope="class")
    def small(self):
        g = preferential_attachment(90, num_conn=2, locality_prob=0.9,
                                    community_mean=15, seed=9)
        wg = attach_random_weights(g, low=0.5, high=5.0, seed=4)
        return (g, multilevel_partition(g, 3, seed=0),
                wg, multilevel_partition(wg, 3, seed=0))

    def _run(self, spec, runtime, mode, columnar, reducers):
        runtime.cluster = SimCluster()  # a fresh clock: sim_time compares exactly
        backend = EngineBackend(spec, runtime=runtime, num_reducers=reducers,
                                columnar=columnar)
        return IterationLoop(backend, DriverConfig(mode=mode)).run()

    @pytest.mark.parametrize("reducers", [1, 3])
    @pytest.mark.parametrize("columnar", [False, True])
    @pytest.mark.parametrize("mode", ["eager", "general"])
    @pytest.mark.parametrize("app", ["pagerank", "sssp"])
    def test_indistinguishable_from_the_oracle(self, small, runtime, app,
                                               mode, columnar, reducers):
        g, part, wg, wpart = small

        def make():
            if app == "pagerank":
                return PageRankKVSpec(g, part)
            return SsspKVSpec(wg, wpart, source=1)

        fast = self._run(make(), runtime, mode, columnar, reducers)
        oracle = self._run(per_record(make()), runtime, mode, columnar,
                           reducers)
        n = g.num_nodes
        assert fast.converged and oracle.converged
        assert fast.global_iters == oracle.global_iters
        assert _state_bytes(fast.state, n) == _state_bytes(oracle.state, n)
        assert ([r.local_iters for r in fast.history]
                == [r.local_iters for r in oracle.history])
        assert ([r.shuffle_bytes for r in fast.history]
                == [r.shuffle_bytes for r in oracle.history])
        assert fast.sim_time == oracle.sim_time and fast.sim_time > 0
        if mode == "eager":
            assert max(max(r.local_iters) for r in fast.history) > 1
