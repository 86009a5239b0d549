"""Tests for power-law fitting and graph metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import (
    fit_power_law,
    hub_spoke_ratio,
    multilevel_partition,
    partition_quality,
    summarize_graph,
)


class TestPowerLaw:
    def test_recovers_known_exponent(self):
        rng = np.random.default_rng(0)
        # discrete power-law sample via inverse transform (alpha = 2.5)
        u = rng.random(200_000)
        xs = np.floor((1 - u) ** (-1 / 1.5)).astype(np.int64)
        # fit the tail (the discrete MLE is accurate for xmin >> 1)
        fit = fit_power_law(xs, xmin=10)
        assert fit.alpha == pytest.approx(2.5, abs=0.25)

    def test_tail_size_reported(self):
        fit = fit_power_law(np.array([1, 2, 3, 10, 20]), xmin=2)
        assert fit.n_tail == 4

    def test_ignores_below_xmin(self):
        d = np.array([0, 0, 0, 5, 6, 7, 8])
        fit = fit_power_law(d, xmin=5)
        assert fit.n_tail == 4

    def test_too_few_observations(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_power_law(np.array([5]), xmin=1)

    def test_bad_xmin(self):
        with pytest.raises(ValueError):
            fit_power_law(np.array([1, 2, 3]), xmin=0)

    def test_hub_spoke_ratio_uniform_low(self):
        flat = np.full(1000, 5.0)
        assert hub_spoke_ratio(flat) == pytest.approx(0.01, abs=0.005)

    def test_hub_spoke_ratio_concentrated_high(self):
        d = np.ones(1000)
        d[0] = 10_000
        assert hub_spoke_ratio(d) > 0.5

    def test_hub_spoke_ratio_empty_and_zero(self):
        assert hub_spoke_ratio(np.array([])) == 0.0
        assert hub_spoke_ratio(np.zeros(5)) == 0.0


class TestMetrics:
    def test_summary_fields(self, small_graph):
        s = summarize_graph(small_graph)
        assert s.num_nodes == small_graph.num_nodes
        assert s.num_edges == small_graph.num_edges
        assert s.max_in_degree == small_graph.in_degree().max()
        assert s.mean_degree == pytest.approx(
            small_graph.num_edges / small_graph.num_nodes)
        assert 1.0 < s.powerlaw_alpha < 10.0

    def test_summary_rows_render(self, small_graph):
        rows = summarize_graph(small_graph).rows()
        names = [r[0] for r in rows]
        assert "Nodes" in names and "Edges" in names

    def test_partition_quality(self, small_graph):
        p = multilevel_partition(small_graph, 4, seed=0)
        q = partition_quality(p)
        assert q.k == 4
        assert q.edge_cut == p.edge_cut()
        assert 0.0 <= q.cut_fraction <= 1.0
        assert q.boundary_nodes == len(p.boundary_nodes())
        assert 0.0 <= q.boundary_fraction <= 1.0
        assert q.nonempty_parts == 4
