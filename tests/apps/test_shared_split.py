"""Node-block specs over one partition share one edge split.

``apps._nodeblock.shared_split`` builds a spec's ``_blocks`` (and a sum
app's ``_fold``) once per (app, partition, edge source) and hands the
same tables to every spec over them while any holds them.  Splits of
any app share their row and node ids (the topology) when these are
equal, and keep their own per-edge values.  The tables are read-only,
go with their last holder, never travel in a pickle, and a job that
shares them lands on the same bits as one that does not.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.apps import (
    ComponentsBlockSpec,
    JacobiBlockSpec,
    PageRankBlockSpec,
    PageRankKVSpec,
    SsspBlockSpec,
    SsspKVSpec,
    components_spec,
    make_diagonally_dominant_system,
    pagerank_spec,
    sssp_spec,
)
from repro.apps import _nodeblock
from repro.apps._nodeblock import INDEX_FIELDS
from repro.cluster import SimCluster
from repro.core import Session
from repro.graph import (
    DiGraph,
    Partition,
    attach_random_weights,
    multilevel_partition,
    preferential_attachment,
    split_edges,
)

from tests.apps.test_local_solve_reference import _messy_graph, _partitions

APPS = ("pagerank", "sssp", "components", "jacobi")
MODES = ("general", "eager")


@pytest.fixture
def inputs():
    """A graph, a weighted twin, a partition of each and a Jacobi
    system, made per test so no other test's specs hold their splits."""
    g = preferential_attachment(300, num_conn=3, num_in=1, num_out=1,
                                locality_prob=0.9, community_mean=30, seed=5)
    wg = attach_random_weights(g, low=1.0, high=10.0, seed=2)
    part = multilevel_partition(g, 5, seed=0)
    wpart = multilevel_partition(wg, 5, seed=0)
    return g, wg, part, wpart, make_diagonally_dominant_system(part, seed=1)


def _maker(app, inputs):
    g, wg, part, wpart, system = inputs
    return {"pagerank": lambda: PageRankBlockSpec(g, part),
            "sssp": lambda: SsspBlockSpec(wg, wpart),
            "components": lambda: ComponentsBlockSpec(g, part),
            "jacobi": lambda: JacobiBlockSpec(system, part)}[app]


def _arrays(spec):
    """Every array of the spec's split but the partition's own nodes."""
    out = [a for b in spec._blocks for a in b[1:]]
    for m in spec._fold or ():
        out += [m.data, m.indices, m.indptr]
    return out


@pytest.fixture
def builds(monkeypatch):
    """How many splits ``shared_split`` builds."""
    calls = []
    real = _nodeblock.split_edges

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(_nodeblock, "split_edges", counted)
    return calls


@pytest.mark.parametrize("app", APPS)
def test_specs_over_one_partition_share_one_split(app, inputs, builds):
    make = _maker(app, inputs)
    a, b = make(), make()
    assert len(builds) == 1
    assert a._blocks is b._blocks and a._fold is b._fold
    assert (a._fold is None) == (app in ("sssp", "components"))
    for x, y in zip(_arrays(a), _arrays(b), strict=True):
        assert np.shares_memory(x, y)


def test_a_kv_spec_shares_its_block_spec_split(inputs, builds):
    g, wg, part, wpart, _ = inputs
    pr, pr_kv = PageRankBlockSpec(g, part), PageRankKVSpec(g, part)
    ss, ss_kv = SsspBlockSpec(wg, wpart), SsspKVSpec(wg, wpart)
    assert len(builds) == 2
    assert pr._blocks is pr_kv._blocks and pr._fold is pr_kv._fold
    assert ss._blocks is ss_kv._blocks


def test_general_and_eager_jobs_share_one_split(inputs, builds):
    g, wg, part, wpart, _ = inputs
    with Session(cluster=SimCluster(), policy="fair") as session:
        handles = [session.submit(job)
                   for mode in MODES for job in (pagerank_spec(g, part, mode=mode),
                                                 sssp_spec(wg, wpart, mode=mode),
                                                 components_spec(g, part, mode=mode))]
        specs = [h.loop.backend.spec for h in handles]
        assert len(builds) == 3
        for general, eager in zip(specs[:3], specs[3:]):
            for x, y in zip(_arrays(general), _arrays(eager), strict=True):
                assert np.shares_memory(x, y)
        # PageRank and components split the same graph differently
        assert not np.shares_memory(specs[0]._blocks[0].int_src,
                                    specs[2]._blocks[0].int_src)


def test_other_partitions_and_sources_get_their_own_split(inputs, builds):
    g, wg, part, wpart, system = inputs
    twin = multilevel_partition(g, 5, seed=0)            # equal, not the same
    specs = [PageRankBlockSpec(g, part), PageRankBlockSpec(g, twin),
             SsspBlockSpec(wg, part), SsspBlockSpec(g, part),
             JacobiBlockSpec(system, part),
             JacobiBlockSpec(make_diagonally_dominant_system(part, seed=1), part)]
    assert len(builds) == len(specs)
    assert len({id(s._blocks) for s in specs}) == len(specs)


WEIGHT_FIELDS = ("int_w", "cut_w", "in_w")


def _twin(g, assign, *, move_an_edge: bool = False):
    """A weighted graph with ``g``'s edges and a partition of it by
    ``assign``, built from arrays of their own (as a benchmark that
    weights a graph for SSSP builds them).  ``move_an_edge`` re-targets
    the first internal edge at the next node of its part, so every part
    keeps its edge counts."""
    src, dst, _ = g.edge_arrays()
    dst = dst.copy()
    if move_an_edge:
        e = np.flatnonzero(assign[src] == assign[dst])[0]
        mates = np.flatnonzero(assign == assign[dst[e]])
        dst[e] = mates[(np.searchsorted(mates, dst[e]) + 1) % len(mates)]
    w = np.random.default_rng(3).uniform(1.0, 10.0, len(src))
    wg = DiGraph(g.num_nodes, src.copy(), dst, w)
    return wg, Partition(wg, assign.copy(), int(assign.max()) + 1)


def _assert_shared_topology(a, b) -> None:
    """``a`` and ``b`` share every index table and no weight table."""
    for x, y in zip(a._blocks, b._blocks, strict=True):
        for f in INDEX_FIELDS:
            assert getattr(x, f) is getattr(y, f)
        for f in WEIGHT_FIELDS:
            assert not np.shares_memory(getattr(x, f), getattr(y, f))


def _assert_own_topology(a, b) -> None:
    """``a`` and ``b`` share no table."""
    for x, y in zip(a._blocks, b._blocks, strict=True):
        for f in INDEX_FIELDS + WEIGHT_FIELDS:
            assert not np.shares_memory(getattr(x, f), getattr(y, f))


def _assert_is_its_own_split(spec, g, w, partition) -> None:
    """``spec``'s blocks are, bit for bit, the split of ``g``'s edges
    carrying ``w`` over ``partition``, and its nodes the partition's."""
    src, dst, _ = g.edge_arrays()
    for b, want, nodes in zip(spec._blocks, split_edges(src, dst, w, partition),
                              partition.parts(), strict=True):
        assert b.nodes is nodes
        for got, x in zip(b[1:], want[1:], strict=True):
            assert got.dtype == x.dtype and got.tobytes() == x.tobytes()


@pytest.mark.parametrize("kv", [False, True], ids=["block", "kv"])
def test_pagerank_and_sssp_over_equal_edges_share_one_topology(inputs, builds, kv):
    g, _, part, _, _ = inputs
    wg, wpart = _twin(g, part.assign)
    assert not np.shares_memory(wg.edge_arrays()[0], g.edge_arrays()[0])
    assert not np.shares_memory(wpart.assign, part.assign)
    pr = (PageRankKVSpec if kv else PageRankBlockSpec)(g, part)
    ss = (SsspKVSpec if kv else SsspBlockSpec)(wg, wpart)
    assert len(builds) == 2                 # SSSP splits to get its weights
    _assert_shared_topology(pr, ss)
    _assert_is_its_own_split(pr, g, pr.inv_outdeg[g.edge_arrays()[0]], part)
    _assert_is_its_own_split(ss, wg, wg.edge_arrays()[2], wpart)


def test_another_edge_or_assign_entry_gets_its_own_topology(inputs):
    g, _, part, _, _ = inputs
    moved = _twin(g, part.assign, move_an_edge=True)
    assign = part.assign.copy()
    u = g.edge_arrays()[0][0]                  # a node with an edge
    assign[u] = (assign[u] + 1) % part.k
    other = _twin(g, assign)
    pr = PageRankBlockSpec(g, part)
    for wg, wpart in (moved, other):
        ss = SsspBlockSpec(wg, wpart)
        _assert_own_topology(pr, ss)
        _assert_is_its_own_split(ss, wg, wg.edge_arrays()[2], wpart)


def test_a_match_by_shape_alone_is_caught(inputs, monkeypatch):
    """The check above fails a topology matched by its tables' shapes:
    the moved edge keeps every part's counts, so such a match shares
    ids that are not SSSP's."""
    g, _, part, _, _ = inputs
    wg, wpart = _twin(g, part.assign, move_an_edge=True)
    gc.collect()                            # no other test's topology is live
    pr = PageRankBlockSpec(g, part)
    monkeypatch.setattr(_nodeblock, "_same_ids", lambda a, b: len(a) == len(b) and all(
        x.shape == y.shape for p, q in zip(a, b) for x, y in zip(p, q)))
    ss = SsspBlockSpec(wg, wpart)
    with pytest.raises(AssertionError):
        _assert_own_topology(pr, ss)
    with pytest.raises(AssertionError):
        _assert_is_its_own_split(ss, wg, wg.edge_arrays()[2], wpart)


def test_a_topology_goes_with_its_last_split(inputs):
    g, wg, part, _, _ = inputs
    pr, ss = PageRankBlockSpec(g, part), SsspBlockSpec(wg, part)
    _assert_shared_topology(pr, ss)
    table = weakref.ref(pr._blocks[0].int_src.base)
    del pr
    gc.collect()
    assert table() is not None              # SSSP's split still holds it
    del ss
    gc.collect()
    assert table() is None


@pytest.mark.parametrize("app", APPS)
def test_a_split_goes_with_its_last_holder(app, inputs, builds):
    make = _maker(app, inputs)
    a, b = make(), make()
    table = weakref.ref(a._blocks[0].int_src.base)
    del a
    gc.collect()
    c = make()                          # b still holds the split
    assert len(builds) == 1 and c._blocks is b._blocks
    del b, c
    gc.collect()
    assert table() is None
    d = make()
    assert len(builds) == 2
    for x, y in zip(_arrays(d), _arrays(make()), strict=True):
        assert np.shares_memory(x, y)


@pytest.mark.parametrize("app", APPS)
def test_shared_arrays_are_read_only(app, inputs):
    spec = _maker(app, inputs)()
    arrays = _arrays(spec)
    # the views a general round's join keeps of the split's tables too
    join = spec._join()[0]
    arrays += [join.int_w, join.cut_dst, join.cut_w, join.in_src, join.in_w]
    for a in arrays:
        assert not a.flags.writeable
        if len(a):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]
    # the partition's own node arrays stay the partition's
    assert spec._blocks[0].nodes is spec.partition.parts()[0]


#: ``pickle.dumps`` byte counts of ``test_local_step``'s six specs,
#: whose blocks carry their node ids once, as an array.
PICKLED_BYTES = {PageRankBlockSpec: 21926, SsspBlockSpec: 18811,
                 ComponentsBlockSpec: 25865, JacobiBlockSpec: 28200,
                 PageRankKVSpec: 21923, SsspKVSpec: 18808}


def test_sharing_does_not_change_a_pickle():
    """A spec pickles to one byte count alone or beside another holder,
    of its own split or of its topology; no cache travels with it, and the
    unpickled copy's arrays are its own and writable."""
    g = _messy_graph(14)
    part = _partitions(g)[0]
    system = make_diagonally_dominant_system(part, seed=0)
    makers = {PageRankBlockSpec: lambda: PageRankBlockSpec(g, part),
              SsspBlockSpec: lambda: SsspBlockSpec(g, part),
              ComponentsBlockSpec: lambda: ComponentsBlockSpec(g, part),
              JacobiBlockSpec: lambda: JacobiBlockSpec(system, part),
              PageRankKVSpec: lambda: PageRankKVSpec(g, part),
              SsspKVSpec: lambda: SsspKVSpec(g, part)}
    for cls, make in makers.items():
        alone = pickle.dumps(make())
        gc.collect()
        # a spec of another app over the same edges holds the topology
        neighbour = SsspBlockSpec(attach_random_weights(g, seed=4), part)
        spec, other = make(), make()
        assert spec._blocks is other._blocks
        if cls not in (ComponentsBlockSpec, JacobiBlockSpec):
            _assert_shared_topology(spec, neighbour)
        shared = pickle.dumps(spec)
        assert len(alone) == PICKLED_BYTES[cls]
        assert shared == alone
        copy = pickle.loads(shared)
        assert copy not in _nodeblock._HELD
        assert not np.shares_memory(copy._blocks[0].int_w, spec._blocks[0].int_w)
        assert all(a.flags.writeable for a in _arrays(copy))


def _run_jobs(jobs, *, one_at_a_time: bool) -> list:
    """Final states of ``jobs`` (each builds its spec when submitted):
    all in one fair session, or each in its own with no other spec
    alive."""
    if not one_at_a_time:
        with Session(cluster=SimCluster(), policy="fair") as session:
            handles = [session.submit(job) for job in jobs]
            specs = [h.loop.backend.spec for h in handles]
            for spec in specs[1:]:
                if spec._blocks is not specs[0]._blocks:
                    _assert_shared_topology(specs[0], spec)
            session.run()
            return [np.asarray(h.result.state) for h in handles]
    out = []
    for job in jobs:
        gc.collect()
        out += _run_jobs([job], one_at_a_time=False)
    return out


def test_a_shared_split_gives_the_bits_of_private_ones(inputs, builds):
    g, _, part, _, _ = inputs
    wg, wpart = _twin(g, part.assign)
    jobs = ([pagerank_spec(g, part, mode=mode) for mode in MODES]
            + [sssp_spec(wg, wpart, mode=mode) for mode in MODES])
    shared = _run_jobs(jobs, one_at_a_time=False)
    assert len(builds) == 2
    private = _run_jobs(jobs, one_at_a_time=True)
    assert len(builds) == 2 + 4
    for x, y in zip(shared, private, strict=True):
        assert x.tobytes() == y.tobytes()
