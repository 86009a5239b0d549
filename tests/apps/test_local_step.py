"""``local_step``: the one hook of a node-partitioned app's local loop.

Three things are pinned here.  The sum apps' fold calls SciPy's CSR
kernel directly (``apps/_nodeblock.csr_fold``), so a SciPy release that
moves or changes ``_sparsetools.csr_matvec`` fails ``TestCsrFold``, not a
golden.  The step's contract holds for all four apps: it never writes
its input, hands the frozen columns back as the same objects, counts
the per-record loop's ops iteration by iteration, and leaves nothing on
the spec.  And a cap below one is refused by every ``local_solve``,
before it looks at the part.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.apps import (
    ComponentsBlockSpec,
    JacobiBlockSpec,
    KMeansBlockSpec,
    PageRankBlockSpec,
    PageRankKVSpec,
    SparseSystem,
    SsspBlockSpec,
    SsspKVSpec,
    make_diagonally_dominant_system,
)
from repro.apps._nodeblock import NodeBlockSpec, csr_fold, sum_fold_matrices
from repro.core import run_local_block, run_local_mapreduce
from repro.core.localmr import agg_identity
from repro.graph import DiGraph, Partition, attach_random_weights, split_edges
from scipy.sparse import csr_array

from tests.apps.test_local_solve_reference import _messy_graph, _partitions
from tests.inputs import gaussian_mixture

CAPS = (1, 3, 10_000)


def _three_part_graph(seed: int):
    """Part 0 holds 30 nodes and every internal edge (parallel ones
    included), part 1 is empty, part 2's ten nodes have only cut
    edges."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, 30, 300)
    dst = rng.integers(0, 30, 300)
    src[:20], dst[:20] = src[20:40], dst[20:40]         # parallel edges
    cut_src = np.concatenate([rng.integers(30, 40, 25), rng.integers(0, 30, 25)])
    cut_dst = np.concatenate([rng.integers(0, 30, 25), rng.integers(30, 40, 25)])
    src, dst = np.concatenate([src, cut_src]), np.concatenate([dst, cut_dst])
    g = DiGraph(40, src, dst)
    assign = np.where(np.arange(40) < 30, 0, 2)
    return g, Partition(g, assign, 3), rng.uniform(0.1, 2.0, len(src))


class TestCsrFold:
    """``csr_fold(M)(x)`` is ``M @ x`` and the per-record ``np.add.at``
    fold, compared by their bytes."""

    @pytest.mark.parametrize("into_target", [True, False])
    def test_is_the_operator_and_the_scatter(self, into_target):
        g, part, w = _three_part_graph(7)
        src, dst, _ = g.edge_arrays()
        blocks = split_edges(src, dst, w, part)
        assert len(blocks[1].nodes) == 0
        assert len(blocks[2].nodes) and len(blocks[2].int_src) == 0
        rng = np.random.default_rng(8)
        mats = sum_fold_matrices(blocks, into_target=into_target)
        for b, m in zip(blocks, mats, strict=True):
            rows, gathered = ((b.int_dst, b.int_src) if into_target
                              else (b.int_src, b.int_dst))
            n = len(b.nodes)
            for scale in (1.0, 1e-3, 1e7):
                wide = rng.uniform(-1.0, 1.0, 2 * n) * scale
                x = wide[::2]  # a strided view, as a column of rows is
                assert n == 0 or not x.flags.c_contiguous
                x.flags.writeable = False
                before = x.tobytes()
                got = csr_fold(m)(x)
                scatter = np.zeros(n)
                np.add.at(scatter, rows, b.int_w * x[gathered])
                assert got.dtype == np.float64 and got.shape == (n,)
                assert got.tobytes() == (m @ x).tobytes()
                assert got.tobytes() == (m @ np.ascontiguousarray(x)).tobytes()
                assert got.tobytes() == scatter.tobytes()
                assert x.tobytes() == before

    def test_each_call_returns_a_fresh_array(self):
        m = csr_array((np.array([2.0]), np.array([1], dtype=np.int32),
                       np.array([0, 1, 1], dtype=np.int32)), shape=(2, 2))
        fold = csr_fold(m)
        first = fold(np.array([1.0, 3.0]))
        second = fold(np.array([1.0, 5.0]))
        assert first.tolist() == [6.0, 0.0] and second.tolist() == [10.0, 0.0]

    def test_rejects_a_column_of_another_length(self):
        """The kernel itself checks nothing; the fold checks what
        ``M @ x`` would."""
        m = csr_array((np.ones(1), np.zeros(1, dtype=np.int32),
                       np.array([0, 1, 1], dtype=np.int32)), shape=(2, 2))
        for n in (1, 3):
            with pytest.raises(ValueError, match="rows"):
                csr_fold(m)(np.ones(n))


# ----------------------------------------------------------------------
# The step's contract, all four apps
# ----------------------------------------------------------------------

class EdgeRecords:
    """One part of a block spec with no KV twin (components, Jacobi) as
    the per-record loop runs it: row ``i`` maps to ``(value, *frozen)``,
    ``lmap`` carries the record and emits one contribution per internal
    edge whose gathered end it is, in edge order, and ``lreduce`` folds
    them by ``agg`` from the identity, then applies ``finish``."""

    def __init__(self, n, gathered, targets, w, agg, identity, payload,
                 finish, converged):
        self._out = [[] for _ in range(n)]
        for g, t, wt in zip(gathered.tolist(), targets.tolist(), w.tolist()):
            self._out[g].append((t, wt))
        self._fold = min if agg == "min" else (lambda a, b: a + b)
        self._identity, self._payload = identity, payload
        self._finish, self._converged = finish, converged

    def lmap(self, key, value, ctx):
        ctx.emit_local_intermediate(key, ("rec", value))
        for t, wt in self._out[key]:
            ctx.emit_local_intermediate(t, ("c", self._payload(value[0], wt)))

    def lreduce(self, key, values, ctx):
        rec, acc = None, self._identity
        for tag, payload in values:
            if tag == "rec":
                rec = payload
            else:
                acc = self._fold(acc, payload)
        ctx.emit_local(key, self._finish(rec, acc))

    def local_converged(self, prev, curr):
        return self._converged([prev[k][0] for k in prev],
                               [curr[k][0] for k in curr])


def _components_records(spec, b):
    ident = int(agg_identity("min", np.dtype(np.int64)))
    return EdgeRecords(
        len(b.nodes), b.int_src, b.int_dst, b.int_w, "min", ident,
        lambda label, w: label,
        lambda rec, best: (min(rec[0], best, rec[1]), rec[1]),
        lambda prev, curr: prev == curr)


def _jacobi_records(spec, b):
    def converged(prev, curr):
        return max((abs(c - p) for p, c in zip(prev, curr)), default=0.0) < spec.tol

    # a Jacobi entry belongs to its row (int_src) and gathers its column
    return EdgeRecords(
        len(b.nodes), b.int_dst, b.int_src, b.int_w, "sum", 0.0,
        lambda x, w: w * x,
        lambda rec, rx: ((rec[1] - rx) / rec[2], rec[1], rec[2]),
        converged)


def _oracle_xs(spec, p, cols):
    """The per-record loop's input: a KV spec's own table records of
    the part's rows, else ``(row, (value, *frozen))``."""
    if isinstance(spec, (PageRankKVSpec, SsspKVSpec)):
        return spec.table_records(p, np.column_stack(cols))
    return [(i, row) for i, row in enumerate(zip(*(c.tolist() for c in cols)))]


def assert_step_contract(spec, p, cols, records=None):
    """``run_local_block`` over ``cols`` at every cap: the columns are
    read-only and come out unwritten, the frozen ones as the same
    objects, ``per_iter_ops`` and the table are the per-record loop's,
    and the spec pickles to the same bytes."""
    for c in cols:
        c.flags.writeable = False
    before = [c.tobytes() for c in cols]
    pickled = pickle.dumps(spec)
    xs = _oracle_xs(spec, p, cols)
    oracle_spec = spec if records is None else records
    runs = []
    for cap in CAPS:
        res = run_local_block(spec, p, cols, max_local_iters=cap)
        assert [c.tobytes() for c in cols] == before
        assert len(res.table) == len(cols)
        assert all(a is b for a, b in zip(res.table[1:], cols[1:]))
        assert res.table[0].dtype == cols[0].dtype
        oracle = run_local_mapreduce(oracle_spec, xs, max_local_iters=cap)
        assert res.per_iter_ops == oracle.per_iter_ops
        assert res.local_iters == oracle.local_iters
        assert res.converged == oracle.converged
        got = [tuple(row) for row in zip(*(c.tolist() for c in res.table))]
        want = [v[:len(cols)] for v in oracle.table.values()]
        assert got == want
        runs.append(res)
    assert len(pickle.dumps(spec)) == len(pickled)
    return runs


def _states(spec, rng):
    """The spec's first state and one off it."""
    first = spec.init_state()
    if first.dtype.kind == "i":
        return [first, rng.permutation(first)]
    other = first.copy()
    pick = rng.random(len(other)) < 0.5
    other[pick] = rng.uniform(0.0, 2.0, pick.sum())
    return [first, other]


def _block_cols(spec, p, state):
    b = spec._blocks[p]
    return (state[b.nodes], *spec.frozen_columns(b, state[getattr(b, spec.remote)]))


class TestStepContract:
    def test_pagerank(self):
        g = _messy_graph(11)
        rng = np.random.default_rng(0)
        for part in _partitions(g):
            spec = PageRankKVSpec(g, part)
            for state in _states(spec, rng):
                for p in range(part.k):
                    assert_step_contract(spec, p, _block_cols(spec, p, state))

    def test_sssp_wave(self):
        """One part, the source in it: the wave reaches more sources
        every iteration, so the record count changes between them."""
        g = attach_random_weights(_messy_graph(12), low=1.0, high=10.0, seed=1)
        source = int(g.out_dst[0])
        spec = SsspKVSpec(g, Partition(g, np.zeros(g.num_nodes, dtype=np.int64), 1),
                          source=source)
        *_, res = assert_step_contract(spec, 0, _block_cols(spec, 0, spec.init_state()))
        assert res.local_iters > 2
        assert len(set(res.per_iter_ops)) > 1
        rng = np.random.default_rng(1)
        for part in _partitions(g):
            spec = SsspKVSpec(g, part, source=source)
            for state in _states(spec, rng):
                for p in range(part.k):
                    assert_step_contract(spec, p, _block_cols(spec, p, state))

    def test_components(self):
        g = _messy_graph(13)
        rng = np.random.default_rng(2)
        for part in _partitions(g):
            spec = ComponentsBlockSpec(g, part)
            for state in _states(spec, rng):
                for p in range(part.k):
                    b = spec._blocks[p]
                    runs = assert_step_contract(spec, p, _block_cols(spec, p, state),
                                                _components_records(spec, b))
                    assert runs[-1].table[0].dtype == np.int64

    def test_jacobi(self):
        """Entries listed row-major, columns ascending within a row: the
        per-record loop then adds a row's terms in the CSR fold's order,
        so the tables agree to the bit, not only the op counts."""
        rng = np.random.default_rng(3)
        n = 60
        rows = rng.integers(0, n, 500)
        cols = (rows + rng.integers(1, n, 500)) % n
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        vals = -rng.uniform(0.5, 1.5, len(rows))
        offsum = np.zeros(n)
        np.add.at(offsum, rows, np.abs(vals))
        system = SparseSystem(n=n, rows=rows, cols=cols, vals=vals,
                              diag=1.5 * offsum + 1.0, b=rng.uniform(-1, 1, n))
        g = DiGraph(n, rows, cols)
        for part in _partitions(g):
            spec = JacobiBlockSpec(system, part)
            for state in _states(spec, rng):
                for p in range(part.k):
                    b = spec._blocks[p]
                    assert (np.diff(b.nodes) > 0).all()
                    assert_step_contract(spec, p, _block_cols(spec, p, state),
                                         _jacobi_records(spec, b))

    def test_local_solve_leaves_nothing_on_the_spec(self):
        g = _messy_graph(14)
        part = _partitions(g)[0]
        system = make_diagonally_dominant_system(part, seed=0)
        for spec in (PageRankBlockSpec(g, part), SsspBlockSpec(g, part),
                     ComponentsBlockSpec(g, part), JacobiBlockSpec(system, part),
                     PageRankKVSpec(g, part), SsspKVSpec(g, part)):
            size, names = len(pickle.dumps(spec)), set(vars(spec))
            state = spec.init_state()
            for p in range(part.k):
                spec.local_solve(p, state, max_local_iters=50)
            assert len(pickle.dumps(spec)) == size
            assert set(vars(spec)) == names


@pytest.mark.parametrize("cls", [PageRankBlockSpec, SsspBlockSpec,
                                 ComponentsBlockSpec, JacobiBlockSpec,
                                 PageRankKVSpec, SsspKVSpec])
def test_one_hook_per_solve(cls):
    """Each app writes ``block_step``, which a part's ``local_step`` and
    a general round both build their step from; the three per-iteration
    hooks it replaced are gone, so no second loop can run beside it."""
    assert cls.block_step is not NodeBlockSpec.block_step
    assert cls.local_step is NodeBlockSpec.local_step
    for name in ("local_fold", "lreduce_block", "local_converged_block"):
        assert not hasattr(cls, name)


class TestCapBelowOne:
    """``max_local_iters < 1`` is refused with ``run_local_block``'s
    message, on an empty part as on a full one."""

    @pytest.mark.parametrize("cap", [0, -1])
    def test_node_block_specs(self, cap):
        g = DiGraph(3, [0, 1], [1, 2])
        part = Partition(g, np.array([0, 0, 2]), 4)   # parts 1 and 3 empty
        system = make_diagonally_dominant_system(part, seed=0)
        for spec in (PageRankBlockSpec(g, part), SsspBlockSpec(g, part),
                     ComponentsBlockSpec(g, part), JacobiBlockSpec(system, part)):
            for p in (0, 1, 2, 3):
                with pytest.raises(ValueError, match="max_local_iters must be >= 1"):
                    spec.local_solve(p, spec.init_state(), max_local_iters=cap)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_kmeans(self, cap):
        points, _ = gaussian_mixture(60, 2, 3, seed=0)
        spec = KMeansBlockSpec(points, 3, num_partitions=2, seed=0)
        state = spec.init_state()
        for p in range(spec.num_partitions()):
            with pytest.raises(ValueError, match="max_local_iters must be >= 1"):
                spec.local_solve(p, state, max_local_iters=cap)
