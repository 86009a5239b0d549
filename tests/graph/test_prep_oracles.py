"""Graph preparation against the loops it replaced.

The ``old_*`` functions below are the bodies of the commit before the
generator and the partitioners stopped looping over NumPy scalars —
``_heavy_edge_matching``'s full neighbour scan, ``_contract``'s
numbering loop and ``lexsort``, both breadth-first loops, ``_subgraph``'s
sort, ``_refine_bisection``'s ``np.add.at`` gains, the generator's
per-pick array draws — verbatim but for their names.  The code in
``src/`` must return the same arrays **and leave the generator in the
same state**: an edge, an ``assign`` entry or one draw of difference
moves every golden literal downstream.

``TestNumpyDrawContract`` holds NumPy itself to what the generator now
relies on: a scalar ``integers(0, n)`` is the ``size=1`` draw.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.graph.partition as partition_mod
from repro.graph import (
    DiGraph,
    Partition,
    bfs_partition,
    chunk_partition,
    multilevel_partition,
    preferential_attachment,
)
from repro.graph.partition import (
    _UGraph,
    _contract,
    _greedy_bisection,
    _heavy_edge_matching,
    _refine_bisection,
    _subgraph,
)
from repro.util import as_rng

SETTINGS = settings(deadline=None, max_examples=60,
                    suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# The replaced bodies
# ----------------------------------------------------------------------

def old_heavy_edge_matching(g, rng):
    n = g.n
    match = np.full(n, -1, dtype=np.int64)
    for u in rng.permutation(n):
        if match[u] != -1:
            continue
        best = -1
        best_w = -np.inf
        for i in range(g.ptr[u], g.ptr[u + 1]):
            v = g.nbr[i]
            if v != u and match[v] == -1 and g.w[i] > best_w:
                best = v
                best_w = g.w[i]
        if best == -1:
            match[u] = u
        else:
            match[u] = best
            match[best] = u
    return match


def old_contract(g, match):
    n = g.n
    cmap = np.full(n, -1, dtype=np.int64)
    nxt = 0
    for u in range(n):
        if cmap[u] == -1:
            cmap[u] = nxt
            v = match[u]
            if v != u and cmap[v] == -1:
                cmap[v] = nxt
            nxt += 1
    cn = nxt
    cvw = np.bincount(cmap, weights=g.vw, minlength=cn)
    cu = cmap[np.repeat(np.arange(n), np.diff(g.ptr))]
    cv = cmap[g.nbr]
    keep = cu != cv
    cu, cv, cw = cu[keep], cv[keep], g.w[keep]
    if len(cu):
        order = np.lexsort((cv, cu))
        cu, cv, cw = cu[order], cv[order], cw[order]
        new_run = np.empty(len(cu), dtype=bool)
        new_run[0] = True
        new_run[1:] = (cu[1:] != cu[:-1]) | (cv[1:] != cv[:-1])
        run_id = np.cumsum(new_run) - 1
        uu, vv = cu[new_run], cv[new_run]
        ww = np.bincount(run_id, weights=cw)
    else:
        uu = cu
        vv = cv
        ww = cw
    ptr = np.zeros(cn + 1, dtype=np.int64)
    np.cumsum(np.bincount(uu, minlength=cn), out=ptr[1:])
    return _UGraph(ptr, vv, ww, cvw), cmap


def old_cut_weight(g, side):
    src = np.repeat(np.arange(g.n), np.diff(g.ptr))
    return float(g.w[side[src] != side[g.nbr]].sum())


def old_greedy_bisection(g, target0, rng):
    n = g.n
    total = g.vw.sum()
    goal = target0 * total
    best_side = None
    best_cut = np.inf
    tries = min(4, n)

    for s in rng.choice(n, size=tries, replace=False):
        side = np.ones(n, dtype=np.int8)
        grown = 0.0
        queue = deque([int(s)])
        seen = np.zeros(n, dtype=bool)
        seen[s] = True
        while queue and grown < goal:
            u = queue.popleft()
            side[u] = 0
            grown += g.vw[u]
            for v in g.nbr[g.ptr[u]: g.ptr[u + 1]]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(int(v))
        # Top up with arbitrary nodes if BFS exhausted a small component.
        if grown < goal:
            for u in rng.permutation(n):
                if side[u] == 1 and grown < goal:
                    side[u] = 0
                    grown += g.vw[u]
        cut = old_cut_weight(g, side)
        if cut < best_cut:
            best_cut = cut
            best_side = side.copy()
    assert best_side is not None
    return best_side


def old_refine_bisection(g, side, target0, tol, max_passes=4):
    n = g.n
    total = g.vw.sum()
    lo0 = (target0 - tol) * total
    hi0 = (target0 + tol) * total
    src = np.repeat(np.arange(n), np.diff(g.ptr))
    for _ in range(max_passes):
        w0 = float(g.vw[side == 0].sum())
        cross = side[src] != side[g.nbr]
        gain = np.zeros(n, dtype=np.float64)
        np.add.at(gain, src, np.where(cross, g.w, -g.w))
        moved_any = False
        candidates = np.flatnonzero(gain > 1e-12)
        if len(candidates) == 0:
            break
        for u in candidates[np.argsort(-gain[candidates])]:
            if gain[u] <= 1e-12:
                continue
            if side[u] == 0:
                new_w0 = w0 - g.vw[u]
            else:
                new_w0 = w0 + g.vw[u]
            if not (lo0 <= new_w0 <= hi0):
                continue
            side[u] ^= 1
            w0 = new_w0
            gain[u] = -gain[u]
            lo_i, hi_i = g.ptr[u], g.ptr[u + 1]
            nbrs = g.nbr[lo_i:hi_i]
            ws = g.w[lo_i:hi_i]
            np.add.at(gain, nbrs,
                      np.where(side[nbrs] == side[u], -2.0 * ws, 2.0 * ws))
            moved_any = True
        if not moved_any:
            break
    return side


def old_subgraph(g, nodes):
    remap = np.full(g.n, -1, dtype=np.int64)
    remap[nodes] = np.arange(len(nodes))
    src = np.repeat(np.arange(g.n), np.diff(g.ptr))
    keep = (remap[src] >= 0) & (remap[g.nbr] >= 0)
    uu = remap[src[keep]]
    vv = remap[g.nbr[keep]]
    ww = g.w[keep]
    ptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    if len(uu):
        order = np.argsort(uu, kind="stable")
        uu, vv, ww = uu[order], vv[order], ww[order]
        np.cumsum(np.bincount(uu, minlength=len(nodes)), out=ptr[1:])
    return _UGraph(ptr, vv, ww, g.vw[nodes])


def old_undirected_csr(graph):
    s, d, w = graph.edge_arrays()
    keep = s != d
    s, d, w = s[keep], d[keep], w[keep]
    us = np.concatenate([s, d])
    vs = np.concatenate([d, s])
    ws = np.concatenate([w, w])
    if len(us) == 0:
        return np.zeros(graph.num_nodes + 1, dtype=np.int64), us, ws
    order = np.lexsort((vs, us))
    us, vs, ws = us[order], vs[order], ws[order]
    new_run = np.empty(len(us), dtype=bool)
    new_run[0] = True
    new_run[1:] = (us[1:] != us[:-1]) | (vs[1:] != vs[:-1])
    run_id = np.cumsum(new_run) - 1
    uu = us[new_run]
    vv = vs[new_run]
    wsum = np.bincount(run_id, weights=ws)
    ptr = np.zeros(graph.num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(uu, minlength=graph.num_nodes), out=ptr[1:])
    return ptr, vv, wsum


def old_bfs_partition(graph, k, *, seed=None):
    n = graph.num_nodes
    if n == 0:
        return Partition(graph, np.zeros(0, dtype=np.int64), k)
    ptr, nbr, _ = old_undirected_csr(graph)
    rng = as_rng(seed)
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    seeds = rng.permutation(n)

    queue = deque()
    for s in seeds:
        if visited[s]:
            continue
        visited[s] = True
        queue.append(int(s))
        while queue:
            u = queue.popleft()
            order[pos] = u
            pos += 1
            for v in nbr[ptr[u]: ptr[u + 1]]:
                if not visited[v]:
                    visited[v] = True
                    queue.append(int(v))
    assert pos == n
    assign = np.empty(n, dtype=np.int64)
    bounds = np.linspace(0, n, k + 1).astype(np.int64)
    for p in range(k):
        assign[order[bounds[p]: bounds[p + 1]]] = p
    return Partition(graph, assign, k)


def old_chunk_partition(graph, k):
    n = graph.num_nodes
    bounds = np.linspace(0, n, k + 1).astype(np.int64)
    assign = np.zeros(n, dtype=np.int64)
    for p in range(k):
        assign[bounds[p]: bounds[p + 1]] = p
    return Partition(graph, assign, k)


def old_preferential_attachment(num_nodes, *, num_conn=3, num_in=1, num_out=1,
                                locality_prob=0.0, locality_window=None,
                                community_mean=None, community_alpha=1.6,
                                remote_back_prob=0.1, seed=None):
    window = locality_window or num_nodes
    rng = as_rng(seed)

    region_start = None
    if community_mean is not None:
        region_start = np.empty(num_nodes, dtype=np.int64)
        pos = 0
        xm = max(1.0, community_mean * (community_alpha - 1.0) / community_alpha)
        while pos < num_nodes:
            size = int(xm * (1.0 + rng.pareto(community_alpha)))
            size = max(2, min(size, num_nodes - pos))
            region_start[pos: pos + size] = pos
            pos += size

    out_lists = [[] for _ in range(num_nodes)]
    in_lists = [[] for _ in range(num_nodes)]
    src_acc = []
    dst_acc = []

    def add_edge(u, v):
        if u == v:
            return
        out_lists[u].append(v)
        in_lists[v].append(u)
        src_acc.append(u)
        dst_acc.append(v)

    nucleus = min(max(num_conn + 1, 3), num_nodes)
    for u in range(nucleus):
        add_edge(u, (u + 1) % nucleus)

    for t in range(nucleus, num_nodes):
        k = min(num_conn, t)
        if locality_prob > 0.0:
            if region_start is not None:
                lo = int(region_start[t])
                if lo >= t:
                    lo = max(0, t - 1)
            else:
                lo = max(0, t - window)
            local_mask = rng.random(k) < locality_prob
            targets = np.where(
                local_mask,
                rng.integers(lo, t, size=k),
                rng.integers(0, t, size=k),
            )
        else:
            local_mask = np.ones(k, dtype=bool)
            targets = rng.choice(t, size=k, replace=False)
        for v, is_local in zip(targets, local_mask):
            v = int(v)
            add_edge(t, v)
            if is_local:
                add_edge(v, t)
                vin = in_lists[v]
                if vin and num_in > 0:
                    take = min(num_in, len(vin))
                    idx = rng.integers(0, len(vin), size=take)
                    for i in idx:
                        add_edge(vin[i], t)
                vout = out_lists[v]
                if vout and num_out > 0:
                    take = min(num_out, len(vout))
                    idx = rng.integers(0, len(vout), size=take)
                    for i in idx:
                        add_edge(t, vout[i])
            else:
                if remote_back_prob > 0.0 and rng.random() < remote_back_prob:
                    add_edge(v, t)
                vout = out_lists[v]
                if vout and num_out > 0:
                    take = min(num_out, len(vout))
                    idx = rng.integers(0, len(vout), size=take)
                    for i in idx:
                        add_edge(t, vout[i])

    return DiGraph(num_nodes, src_acc, dst_acc)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

#: Few distinct weights, so rows tie: CSR order must break them.
TIED_WEIGHTS = st.sampled_from([1.0, 2.0, 2.0, 3.5, 0.25])
ANY_WEIGHTS = st.floats(1e-3, 1e3, allow_nan=False)


@st.composite
def working_graphs(draw, max_nodes=48, max_edges=160):
    """A symmetric working graph *as a multigraph*: parallel entries,
    self-loops and rows in arbitrary neighbour order (what coarsening
    never produces but the matching must still tie-break on), isolated
    nodes and several components (``n`` outruns the edges), node
    weights as on a coarse level."""
    n = draw(st.integers(1, max_nodes))
    m = draw(st.integers(0, max_edges))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    s, d = np.array(draw(ends), dtype=np.int64), np.array(draw(ends), dtype=np.int64)
    weights = draw(st.sampled_from([TIED_WEIGHTS, ANY_WEIGHTS]))
    w = np.array(draw(st.lists(weights, min_size=m, max_size=m)), dtype=np.float64)
    us, vs, ws = np.concatenate([s, d]), np.concatenate([d, s]), np.concatenate([w, w])
    order = np.argsort(us, kind="stable")
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(us, minlength=n), out=ptr[1:])
    vw = np.array(draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]),
                                min_size=n, max_size=n)), dtype=np.float64)
    return _UGraph(ptr, vs[order], ws[order], vw)


@st.composite
def digraphs(draw, max_nodes=40, max_edges=120):
    n = draw(st.integers(1, max_nodes))
    m = draw(st.integers(0, max_edges))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    weights = draw(st.sampled_from([TIED_WEIGHTS, ANY_WEIGHTS]))
    return DiGraph(n, draw(ends), draw(ends),
                   draw(st.lists(weights, min_size=m, max_size=m)))


SEEDS = st.integers(0, 2**32 - 1)


def same_graph(a: DiGraph, b: DiGraph) -> None:
    assert a.num_nodes == b.num_nodes
    for name, x, y in zip(("src", "dst", "w"), a.edge_arrays(), b.edge_arrays()):
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def same_ugraph(a: _UGraph, b: _UGraph) -> None:
    for name in ("ptr", "nbr", "w", "vw"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def both(seed):
    """Two generators in the same state, one per implementation."""
    return np.random.default_rng(seed), np.random.default_rng(seed)


def same_state(a: np.random.Generator, b: np.random.Generator) -> None:
    assert a.bit_generator.state == b.bit_generator.state


# ----------------------------------------------------------------------
# The partitioner's pieces
# ----------------------------------------------------------------------

class TestMatching:
    @SETTINGS
    @given(working_graphs(), SEEDS)
    def test_matches_the_full_scan(self, g, seed):
        new_rng, old_rng = both(seed)
        match = _heavy_edge_matching(g, new_rng)
        assert match.dtype == np.int64
        assert np.array_equal(match, old_heavy_edge_matching(g, old_rng))
        same_state(new_rng, old_rng)

    def test_equal_weights_go_to_the_first_in_csr_order(self):
        # node 0's row is [2, 1, 3], all weight 1: whichever node is
        # visited first, a tie goes to the earliest entry of the row —
        # not to the smallest id, not to the last seen
        ptr = np.array([0, 3, 4, 5, 6])
        nbr = np.array([2, 1, 3, 0, 0, 0])
        g = _UGraph(ptr, nbr, np.ones(6), np.ones(4))
        for seed in range(8):
            new_rng, old_rng = both(seed)
            assert np.array_equal(_heavy_edge_matching(g, new_rng),
                                  old_heavy_edge_matching(g, old_rng))

    def test_self_loops_never_match(self):
        g = _UGraph(np.array([0, 2, 3]), np.array([0, 1, 0]),
                    np.array([9.0, 1.0, 1.0]), np.ones(2))
        assert _heavy_edge_matching(g, np.random.default_rng(0)).tolist() == [1, 0]
        lone = _UGraph(np.array([0, 1]), np.array([0]), np.ones(1), np.ones(1))
        assert _heavy_edge_matching(lone, np.random.default_rng(0)).tolist() == [0]


class TestContract:
    @SETTINGS
    @given(working_graphs(), SEEDS)
    def test_matches_the_numbering_loop(self, g, seed):
        match = old_heavy_edge_matching(g, np.random.default_rng(seed))
        coarse, cmap = _contract(g, match)
        old_coarse, old_cmap = old_contract(g, match)
        assert cmap.dtype == np.int64 and np.array_equal(cmap, old_cmap)
        same_ugraph(coarse, old_coarse)

    def test_pairs_are_numbered_by_their_smaller_endpoint(self):
        # pairs (0,3) (1,1) (2,4): leaders 0, 1, 2 in node order
        g = _UGraph(np.zeros(6, dtype=np.int64), np.zeros(0, dtype=np.int64),
                    np.zeros(0), np.ones(5))
        _, cmap = _contract(g, np.array([3, 1, 4, 0, 2]))
        assert cmap.tolist() == [0, 1, 2, 0, 2]


class TestBisectionPieces:
    @SETTINGS
    @given(working_graphs(), st.sampled_from([0.5, 0.6, 1 / 3, 0.25]), SEEDS)
    def test_greedy_bisection_matches_the_array_bfs(self, g, target0, seed):
        new_rng, old_rng = both(seed)
        side = _greedy_bisection(g, target0, new_rng)
        old_side = old_greedy_bisection(g, target0, old_rng)
        assert side.dtype == old_side.dtype and np.array_equal(side, old_side)
        same_state(new_rng, old_rng)

    @SETTINGS
    @given(working_graphs(), st.sampled_from([0.5, 0.6, 1 / 3]),
           st.sampled_from([0.05, 0.01, 0.3]), SEEDS)
    def test_refinement_matches_the_add_at_gains(self, g, target0, tol, seed):
        side = np.random.default_rng(seed).integers(0, 2, g.n).astype(np.int8)
        assert np.array_equal(
            _refine_bisection(g, side.copy(), target0, tol),
            old_refine_bisection(g, side.copy(), target0, tol))

    @SETTINGS
    @given(working_graphs(), SEEDS)
    def test_subgraph_of_ascending_nodes_needs_no_sort(self, g, seed):
        keep = np.random.default_rng(seed).random(g.n) < 0.6
        nodes = np.flatnonzero(keep)
        same_ugraph(_subgraph(g, nodes), old_subgraph(g, nodes))


class TestWholePartitioners:
    @SETTINGS
    @given(digraphs())
    def test_digraph_edge_order_is_the_lexsort_order(self, graph):
        # parallel edges of different weight: ties keep input order
        s, d, w = graph.edge_arrays()
        order = np.lexsort((s, d))
        flipped = graph.reverse()
        for new, old in zip(flipped.edge_arrays(), (d[order], s[order], w[order])):
            assert np.array_equal(new, old)

    @SETTINGS
    @given(digraphs())
    def test_undirected_csr(self, graph):
        for new, old in zip(graph.undirected_csr(), old_undirected_csr(graph)):
            assert new.dtype == old.dtype and np.array_equal(new, old)

    @SETTINGS
    @given(digraphs(), st.integers(1, 50), SEEDS)
    def test_bfs_partition(self, graph, k, seed):
        # k runs past n: empty chunks
        new_rng, old_rng = both(seed)
        assert np.array_equal(bfs_partition(graph, k, seed=new_rng).assign,
                              old_bfs_partition(graph, k, seed=old_rng).assign)
        same_state(new_rng, old_rng)

    @SETTINGS
    @given(digraphs(), st.integers(1, 50))
    def test_chunk_partition(self, graph, k):
        assert np.array_equal(chunk_partition(graph, k).assign,
                              old_chunk_partition(graph, k).assign)

    @settings(deadline=None, max_examples=25,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(65, 260), st.sampled_from([0.0, 0.9]),
           st.booleans(), st.integers(2, 300), SEEDS)
    def test_multilevel_partition(self, n, locality, weighted, k, seed):
        """The pipeline end to end on graphs big enough to coarsen
        (above ``min_coarse``), ``k`` up to and past ``n``: the old
        pieces patched in must produce the same ``assign`` from the
        same draws."""
        graph = preferential_attachment(
            n, locality_prob=locality, community_mean=20 if locality else None,
            seed=seed)
        if weighted:
            w = np.random.default_rng(seed).integers(1, 4, graph.num_edges)
            graph = graph.with_weights(w.astype(np.float64))
        new_rng, old_rng = both(seed)
        assign = multilevel_partition(graph, k, seed=new_rng).assign
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(DiGraph, "undirected_csr", old_undirected_csr)
            for name, fn in (("_heavy_edge_matching", old_heavy_edge_matching),
                             ("_contract", old_contract),
                             ("_greedy_bisection", old_greedy_bisection),
                             ("_refine_bisection", old_refine_bisection),
                             ("_subgraph", old_subgraph)):
                patch.setattr(partition_mod, name, fn)
            old_assign = multilevel_partition(graph, k, seed=old_rng).assign
        assert np.array_equal(assign, old_assign)
        same_state(new_rng, old_rng)


# ----------------------------------------------------------------------
# The generator
# ----------------------------------------------------------------------

class TestGenerator:
    @SETTINGS
    @given(
        st.integers(1, 160),
        st.integers(1, 8),                        # num_conn
        st.integers(0, 3), st.integers(0, 3),     # num_in (2 = Graph B), num_out
        st.sampled_from([0.0, 0.5, 0.96, 1.0]),
        st.sampled_from([None, 1, 7]),            # locality_window
        st.sampled_from([None, 2, 12]),           # community_mean
        st.sampled_from([0.0, 0.1, 1.0]),         # remote_back_prob
        SEEDS,
    )
    def test_matches_the_array_draws(self, n, conn, num_in, num_out, locality,
                                     window, community, back, seed):
        kwargs = dict(num_conn=conn, num_in=num_in, num_out=num_out,
                      locality_prob=locality, locality_window=window,
                      community_mean=community, remote_back_prob=back)
        new_rng, old_rng = both(seed)
        new = preferential_attachment(n, seed=new_rng, **kwargs)
        old = old_preferential_attachment(n, seed=old_rng, **kwargs)
        same_graph(new, old)
        same_state(new_rng, old_rng)

    @pytest.mark.parametrize("which", ["A", "B"])
    def test_paper_presets(self, which):
        from repro.graph import GRAPH_A_SPEC, GRAPH_B_SPEC

        spec = dict(GRAPH_A_SPEC if which == "A" else GRAPH_B_SPEC)
        n = spec.pop("num_nodes") // 400
        kwargs = dict(spec, locality_prob=0.96, community_mean=max(32, n // 200))
        new_rng, old_rng = both(0)
        same_graph(preferential_attachment(n, seed=new_rng, **kwargs),
                   old_preferential_attachment(n, seed=old_rng, **kwargs))
        same_state(new_rng, old_rng)


class TestNumpyDrawContract:
    def test_scalar_integers_is_the_size_one_draw(self):
        """20,000 mixed draws: every scalar ``integers(0, n)`` returns
        what ``integers(0, n, size=1)`` returns and leaves the same
        state, whatever was drawn before (``random()`` and 32-bit
        bounded draws share PCG64's half-word buffer) and for ``n = 1``
        (no draw at all).  A NumPy where this stops holding must fail
        here, not silently generate another Graph A."""
        scalar, array = both(12345)
        bounds = np.random.default_rng(0).integers(1, 5000, size=20_000)
        bounds[::17] = 1
        bounds[5::23] = 2**31 + 11
        bounds[7::29] = 2**40 + 3
        for i, n in enumerate(bounds.tolist()):
            if i % 3 == 0:
                assert scalar.random() == array.random()
            if i % 5 == 0:
                assert np.array_equal(scalar.integers(0, n, size=3),
                                      array.integers(0, n, size=3))
            got = scalar.integers(0, n)
            assert got == array.integers(0, n, size=1)[0]
            assert scalar.bit_generator.state == array.bit_generator.state, i
