"""Property-based tests for the core driver, local loop, and solver."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.apps.pagerank import PageRankKVSpec
from repro.apps.sssp import SsspKVSpec
from repro.core import (
    CentroidShiftCriterion,
    DriverConfig,
    per_record,
    run_local_block,
    run_local_mapreduce,
)
from repro.graph import DiGraph, Partition

from tests.core.test_local_block import block_table, graph_records
from tests.core.test_localmr import CountdownSpec


class TestLocalLoopProperties:
    @settings(deadline=None, max_examples=40)
    @given(st.dictionaries(st.text(alphabet="abc", min_size=1, max_size=2),
                           st.integers(min_value=0, max_value=20),
                           min_size=1, max_size=6),
           st.integers(min_value=1, max_value=40))
    def test_countdown_semantics(self, table, cap):
        xs = list(table.items())
        res = run_local_mapreduce(CountdownSpec(), xs, max_local_iters=cap)
        expected_iters = min(cap, max(max(table.values()), 1))
        assert res.local_iters == expected_iters
        for k, v in table.items():
            assert res.table[k] == max(0, v - res.local_iters)

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.integers(min_value=0, max_value=15), min_size=1,
                    max_size=8))
    def test_converged_iff_all_zero(self, values):
        xs = [(i, v) for i, v in enumerate(values)]
        res = run_local_mapreduce(CountdownSpec(), xs, max_local_iters=100)
        assert res.converged
        assert all(v == 0 for v in res.table.values())


@st.composite
def partitioned_digraphs(draw):
    """A small weighted digraph (self-loops and parallel edges allowed),
    a k-way assignment with possibly empty parts, and one finite-or-inf
    ``(value, ext)`` pair per node to start the local loop from."""
    n = draw(st.integers(min_value=1, max_value=10))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=40))
    weights = draw(st.lists(st.floats(0.015625, 64.0, allow_nan=False),
                            min_size=len(edges), max_size=len(edges)))
    k = draw(st.integers(min_value=1, max_value=4))
    assign = draw(st.lists(st.integers(min_value=0, max_value=k - 1),
                           min_size=n, max_size=n))
    value = st.one_of(st.just(float("inf")), st.floats(0.0, 100.0))
    state = draw(st.lists(st.tuples(value, value), min_size=n, max_size=n))
    g = DiGraph(n, [e[0] for e in edges], [e[1] for e in edges], weights)
    return g, Partition(g, np.array(assign, dtype=np.int64), k), state


class TestBlockLoopProperties:
    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.too_slow])
    @given(partitioned_digraphs(), st.sampled_from([1, 2, 3, 7, 10_000]),
           st.floats(0.05, 0.95))
    def test_block_loop_is_bitwise_the_per_record_loop(self, case, cap, damping):
        g, part, state = case
        finite = [(min(v, 100.0), min(e, 100.0)) for v, e in state]
        pagerank = PageRankKVSpec(g, part)
        # Both loops read the shared base's damping at call time.
        pagerank.damping = damping
        runs = [(pagerank, np.array(finite, dtype=np.float64)),
                (SsspKVSpec(g, part, source=0),
                 np.array(state, dtype=np.float64))]
        for spec, rows in runs:
            for p in range(part.k):
                records = graph_records(spec, p, rows)
                assert per_record(spec).partition_input(p, rows) == records
                block = run_local_block(spec, p, spec.local_columns(
                    p, spec.partition_input(p, rows)), max_local_iters=cap)
                oracle = run_local_mapreduce(spec, records,
                                             max_local_iters=cap)
                assert block_table(records, block.table) == oracle.table
                assert block.local_iters == oracle.local_iters
                assert block.per_iter_ops == oracle.per_iter_ops
                assert block.converged == oracle.converged


def _every_emission_case():
    """Part 2 is empty; node 0 has two parallel cut edges, unreached
    node 1 (SSSP ``inf``) one, and node 3 none."""
    g = DiGraph(4, [0, 0, 1, 2], [2, 2, 3, 3], [1.5, 0.25, 2.0, 3.0])
    part = Partition(g, np.array([0, 0, 1, 1], dtype=np.int64), 3)
    inf = float("inf")
    return g, part, [(0.0, inf), (inf, inf), (1.5, 2.0), (inf, 4.0)]


class TestObjectPathEmission:
    @settings(deadline=None, max_examples=80,
              suppress_health_check=[HealthCheck.too_slow])
    @given(partitioned_digraphs())
    @example(_every_emission_case())
    def test_pairs_from_columns_are_the_oracles_gmap_emit(self, case):
        """The object path's pairs built from the final columns and the
        part's cut-edge arrays are the oracle's ``gmap_emit`` over the
        per-record table, pair for pair: keys, tags, float values, order
        (an unreached SSSP row emits its distance and no candidate)."""
        g, part, state = case
        finite = [(min(v, 100.0), min(e, 100.0)) for v, e in state]
        runs = [(PageRankKVSpec(g, part), np.array(finite, dtype=np.float64)),
                (SsspKVSpec(g, part, source=0),
                 np.array(state, dtype=np.float64))]
        for spec, rows in runs:
            for p in range(part.k):
                want = spec.gmap_emit(dict(graph_records(spec, p, rows)), p)
                cols = spec.local_columns(p, spec.partition_input(p, rows))
                got = spec.gmap_emit_pairs(cols, p)
                assert got == want
                assert all(type(k) is int and type(tag) is str
                           and type(v) is float for k, (tag, v) in got)


@st.composite
def centroid_pairs(draw):
    """Two same-shape ``(k, d)`` centroid arrays with integer coordinates
    (so differences and shifts are exact in float64)."""
    k = draw(st.integers(min_value=0, max_value=6))
    d = draw(st.integers(min_value=1, max_value=4))
    coords = st.lists(st.integers(-1000, 1000), min_size=k * d,
                      max_size=k * d)
    prev = np.array(draw(coords), dtype=np.float64).reshape(k, d)
    curr = np.array(draw(coords), dtype=np.float64).reshape(k, d)
    return prev, curr


class TestCriterionProperties:
    @settings(deadline=None, max_examples=60)
    @given(centroid_pairs())
    def test_residual_symmetric_in_argument_order(self, pair):
        prev, curr = pair
        c = CentroidShiftCriterion(1.0)
        assert c.residual(prev, curr) == c.residual(curr, prev)

    @settings(deadline=None, max_examples=60)
    @given(centroid_pairs(), st.integers(-1000, 1000))
    def test_residual_translation_invariant(self, pair, shift):
        prev, curr = pair
        c = CentroidShiftCriterion(1.0)
        assert c.residual(prev + shift, curr + shift) == c.residual(prev, curr)

    @settings(deadline=None, max_examples=60)
    @given(centroid_pairs(), st.floats(1e-3, 3000.0))
    def test_first_update_is_the_threshold_rule(self, pair, tol):
        prev, curr = pair
        c = CentroidShiftCriterion(tol)
        moved = max((math.dist(p, q) for p, q in zip(prev, curr)), default=0.0)
        assert c.update(prev, curr) == (c.last_residual < tol)
        assert c.last_residual == pytest.approx(moved, rel=1e-12)
        assert not c.oscillated


class TestJacobiProperties:
    @settings(deadline=None, max_examples=15,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=1, max_value=4),
           st.sampled_from(["general", "eager"]))
    def test_random_dominant_systems_solved(self, seed, k, mode):
        from repro.apps import jacobi_spec, make_diagonally_dominant_system
        from repro.graph import chunk_partition

        from tests.inputs import random_digraph

        g = random_digraph(30, 80, seed=seed)
        part = chunk_partition(g, k)
        system = make_diagonally_dominant_system(part, dominance=2.0,
                                                 seed=seed)
        res = jacobi_spec(system, part, mode=mode, tol=1e-10).run()
        exact = np.linalg.solve(system.dense(), system.b)
        assert np.abs(res.state - exact).max() < 1e-6


class TestDriverConfigProperties:
    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from(["general", "eager"]),
           st.integers(min_value=1, max_value=500))
    def test_effective_local_iters(self, mode, mli):
        cfg = DriverConfig(mode=mode, max_local_iters=mli)
        if mode == "general":
            assert cfg.effective_local_iters == 1
        else:
            assert cfg.effective_local_iters == mli
