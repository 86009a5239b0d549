"""The read-set contract of the node-partitioned block specs.

A part's local solve reads the state at its own rows and at
``read_rows(p)``, nowhere else: ``frozen_columns`` is handed only the
state at the block's remote rows.  The async backend refreshes a
partition's private view at exactly those rows, so an entry the solve
read outside them would be a stale value there.  Poisoning every other
entry must leave the report unchanged to the bit, and poisoning the read
rows must change it (the set is not padded).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import (
    ComponentsBlockSpec,
    JacobiBlockSpec,
    PageRankBlockSpec,
    SsspBlockSpec,
    make_diagonally_dominant_system,
)
from repro.graph import DiGraph, partition_graph


@st.composite
def spec_and_state(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    m = draw(st.integers(min_value=1, max_value=120))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    w = draw(st.lists(st.floats(0.5, 20.0), min_size=m, max_size=m))
    g = DiGraph(n, src, dst, w)
    k = draw(st.integers(min_value=1, max_value=min(6, n)))
    method = draw(st.sampled_from(["multilevel", "chunk", "hash"]))
    part = partition_graph(g, k, method=method, seed=0)
    app = draw(st.sampled_from(["pagerank", "sssp", "components", "jacobi"]))
    if app == "pagerank":
        spec = PageRankBlockSpec(g, part)
    elif app == "sssp":
        spec = SsspBlockSpec(g, part, source=0)
    elif app == "components":
        spec = ComponentsBlockSpec(g, part)
    else:
        spec = JacobiBlockSpec(make_diagonally_dominant_system(part, seed=0), part)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    state = spec.init_state()
    if state.dtype.kind == "i":
        state = rng.permutation(state)
    else:
        pick = rng.random(n) < 0.7      # SSSP keeps some nodes unreached
        state[pick] = rng.uniform(0.0, 5.0, pick.sum())
    return spec, state


def poisoned(state: np.ndarray, where: np.ndarray) -> np.ndarray:
    """``state`` with NaN at ``where``, or -1 for integer labels (below
    every label, so a min would take it)."""
    out = state.copy()
    out[where] = -1 if state.dtype.kind == "i" else np.nan
    return out


def report_bytes(r) -> tuple:
    nodes, x = r.updates
    return (r.partition, nodes.tobytes(), x.tobytes(), r.local_iters,
            r.per_iter_ops, r.shuffle_bytes, r.update_nbytes)


def solve(spec, p, state, max_local_iters):
    with np.errstate(invalid="ignore"):     # NaN meets inf in SSSP's min
        return report_bytes(spec.local_solve(p, state,
                                             max_local_iters=max_local_iters))


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec_and_state(), st.sampled_from([1, 4]))
def test_a_solve_reads_only_its_slice_and_its_read_rows(ss, max_local_iters):
    spec, state = ss
    n = len(state)
    for p in range(spec.num_partitions()):
        nodes = spec._blocks[p].nodes
        reads = np.asarray(spec.read_rows(p))
        assert not np.isin(reads, nodes).any()     # outside its own slice
        unread = np.setdiff1d(np.arange(n), np.concatenate([nodes, reads]))
        want = solve(spec, p, state, max_local_iters)
        assert solve(spec, p, poisoned(state, unread), max_local_iters) == want
        if len(nodes) and len(reads):
            assert solve(spec, p, poisoned(state, reads), max_local_iters) != want


def test_the_read_rows_come_from_the_spec():
    """Jacobi's row owns the entry, so it reads its outgoing cut edges'
    targets; a pushing app's incoming cut sources are the wrong set for
    it, and a view refreshed only there would feed its solve stale
    values."""
    g = DiGraph(6, [0, 1, 2, 3, 4, 5, 0, 3], [1, 2, 3, 4, 5, 0, 4, 1])
    part = partition_graph(g, 2, method="chunk")
    spec = JacobiBlockSpec(make_diagonally_dominant_system(part, seed=1), part)
    state = np.linspace(1.0, 2.0, 6)
    wrong = 0
    for p, b in enumerate(spec._blocks):
        assert np.array_equal(spec.read_rows(p), b.cut_dst)
        outside = np.setdiff1d(np.arange(6), np.concatenate([b.nodes, b.in_src]))
        wrong += solve(spec, p, poisoned(state, outside), 3) != solve(spec, p, state, 3)
    assert wrong
