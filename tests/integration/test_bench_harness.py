"""Tests for the benchmark harness (repro.bench) at tiny scale."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import (
    KMEANS_SSE_RATIO,
    PAPER_KMEANS_THRESHOLDS,
    PAPER_PARTITION_COUNTS,
    SweepPoint,
    SweepResult,
    check_answers,
    get_graph,
    get_partition,
    graph_scale,
    kmeans_rows,
    kmeans_sweep,
    make_cluster,
    pagerank_sweep,
    report_sweep,
    scaled_partitions,
    speedup_summary,
    sssp_sweep,
)

TINY = 0.002  # ~560-node Graph A: fast enough for unit tests


class TestScaleHandling:
    def test_default_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert graph_scale() == 0.1

    def test_full_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert graph_scale() == 1.0
        assert kmeans_rows() == 200_000

    def test_fractional_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        assert graph_scale() == 0.25

    def test_invalid_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "3.0")
        with pytest.raises(ValueError):
            graph_scale()

    def test_scaled_partitions_regime(self):
        pairs = scaled_partitions(0.1)
        assert [p for p, _ in pairs] == list(PAPER_PARTITION_COUNTS)
        assert pairs[0][1] == 10  # 100 * 0.1
        # minimum of 2 partitions even at tiny scales
        assert all(k >= 2 for _, k in scaled_partitions(1e-6))


class TestCachedInputs:
    def test_graph_cached(self):
        assert get_graph("A", TINY) is get_graph("A", TINY)

    def test_partition_cached_and_consistent(self):
        p1 = get_partition("A", TINY, 4)
        p2 = get_partition("A", TINY, 4)
        assert p1 is p2
        assert p1.graph is get_graph("A", TINY)

    def test_weighted_variant_distinct(self):
        g = get_graph("A", TINY)
        gw = get_graph("A", TINY, weighted=True)
        assert g is not gw
        assert gw.num_edges == g.num_edges

    def test_weighted_variant_is_the_cached_graph_plus_weights(self, monkeypatch):
        # the weighted twin used to regenerate the whole graph; it must
        # still be the graph a fresh generate-then-weigh produces
        from repro.bench import harness
        from repro.graph import attach_random_weights, make_paper_graph

        scale = TINY * 1.5  # a scale no other test has cached
        calls = []
        monkeypatch.setattr(
            harness, "make_paper_graph",
            lambda *a, **kw: calls.append(a) or make_paper_graph(*a, **kw))
        gw = get_graph("A", scale, weighted=True)
        g = get_graph("A", scale)
        assert len(calls) == 1
        assert get_graph("A", scale, weighted=True) is gw
        fresh = attach_random_weights(make_paper_graph("A", scale=scale, seed=0),
                                      low=1.0, high=10.0, seed=1)
        assert gw.num_nodes == fresh.num_nodes
        assert all(np.array_equal(a, b) for a, b in
                   zip(gw.edge_arrays(), fresh.edge_arrays()))
        assert all(np.array_equal(a, b) for a, b in
                   zip(gw.edge_arrays()[:2], g.edge_arrays()[:2]))

    def test_make_cluster_fresh(self):
        a, b = make_cluster(), make_cluster()
        assert a is not b
        assert len(a.nodes) == 8


class TestSweeps:
    @pytest.fixture(scope="class")
    def tiny_sweep(self):
        return pagerank_sweep("A", scale=TINY)

    def test_sweep_has_both_modes_per_point(self, tiny_sweep):
        xs_e, _ = tiny_sweep.series("eager")
        xs_g, _ = tiny_sweep.series("general")
        assert xs_e == xs_g
        assert len(xs_e) >= 3

    def test_all_points_converged(self, tiny_sweep):
        assert all(p.converged for p in tiny_sweep.points)

    def test_sim_times_positive(self, tiny_sweep):
        assert all(p.sim_time > 0 for p in tiny_sweep.points)

    def test_kmeans_sweep_thresholds(self):
        result = kmeans_sweep(rows=2000, k=4, partitions=8)
        xs, _ = result.series("general")
        assert tuple(xs) == PAPER_KMEANS_THRESHOLDS

    def test_sssp_sweep_eager_wins_at_every_point(self):
        # Figures 6 and 7: fewer global iterations, less simulated time
        result = sssp_sweep(scale=TINY)
        assert result.name == "sssp-A"
        assert all(p.converged for p in result.points)
        xs, _ = result.series("eager")
        assert xs == result.series("general")[0] and len(xs) >= 3
        for value in ("iterations", "sim_time"):
            eager = result.series("eager", value=value)[1]
            general = result.series("general", value=value)[1]
            assert all(e < g for e, g in zip(eager, general)), value


class TestAnswers:
    """Every sweep point carries its distance to the right answer, and
    the sweep refuses to return one that is off."""

    def test_pagerank_points_near_the_true_fixed_point(self):
        result = pagerank_sweep("A", scale=TINY)
        general = {p.x: p.answer_error for p in result.points
                   if p.mode == "general"}
        for p in result.points:
            assert 0.0 < p.answer_error < 1e-4       # tol 1e-5, not 1e-13
            assert p.answer_error <= 2 * general[p.x]

    def test_sssp_points_are_dijkstra(self):
        assert all(p.answer_error == 0.0 for p in sssp_sweep(scale=TINY).points)

    def test_kmeans_points_near_lloyd(self):
        result = kmeans_sweep(rows=2000, k=4, partitions=8)
        for p in result.points:
            assert 1.0 - 1e-9 < p.answer_error <= KMEANS_SSE_RATIO

    @staticmethod
    def _point(mode, error, x=100):
        return SweepPoint(x=x, effective_x=x, mode=mode, iterations=1,
                          sim_time=1.0, converged=True, answer_error=error)

    @pytest.mark.parametrize("name, general, eager, ok", [
        ("pagerank-A", 5e-5, 1e-4, True),
        ("pagerank-A", 5e-5, 1.01e-4, False),
        ("sssp-A", 0.0, 0.0, True),
        ("sssp-A", 0.0, 1.0, False),
        ("sssp-A", float("inf"), 0.0, False),
        ("kmeans", 1.0, KMEANS_SSE_RATIO, True),
        ("kmeans", 1.0, 1.01, False),
    ])
    def test_the_gate(self, name, general, eager, ok):
        result = SweepResult(name=name, points=[
            self._point("general", general), self._point("eager", eager)])
        if ok:
            check_answers(result)
        else:
            with pytest.raises(AssertionError, match="off the answer"):
                check_answers(result)


class TestReporting:
    @pytest.fixture(scope="class")
    def sweep(self):
        return pagerank_sweep("A", scale=TINY)

    def test_report_contains_series(self, sweep):
        out = report_sweep(sweep, value="iterations", title="Fig X")
        assert "Fig X" in out
        assert "series Eager" in out and "series General" in out
        assert "General/Eager" in out

    def test_speedup_summary_fields(self, sweep):
        s = speedup_summary(sweep)
        assert set(s) == {"mean", "max", "min"}
        assert s["min"] <= s["mean"] <= s["max"]

    def test_speedup_positive(self, sweep):
        assert speedup_summary(sweep)["mean"] > 1.0

    def test_empty_sweep_summary(self):
        empty = SweepResult(name="empty", points=[])
        s = speedup_summary(empty)
        assert s["mean"] != s["mean"]  # NaN
