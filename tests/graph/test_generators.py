"""Tests for the graph generators (Table II inputs and helpers)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import (
    GRAPH_A_SPEC,
    GRAPH_B_SPEC,
    attach_random_weights,
    fit_power_law,
    hub_spoke_ratio,
    make_paper_graph,
    preferential_attachment,
)

from tests.inputs import grid_graph, random_digraph, ring_graph


class TestPreferentialAttachment:
    def test_node_count(self):
        g = preferential_attachment(500, seed=0)
        assert g.num_nodes == 500

    def test_edge_count_scales_with_params(self):
        g1 = preferential_attachment(500, num_conn=2, seed=0)
        g2 = preferential_attachment(500, num_conn=5, seed=0)
        assert g2.num_edges > g1.num_edges

    def test_deterministic_with_seed(self):
        a = preferential_attachment(300, seed=42)
        b = preferential_attachment(300, seed=42)
        assert all(np.array_equal(x, y) for x, y in
                   zip(a.edge_arrays(), b.edge_arrays()))

    def test_different_seeds_differ(self):
        a = preferential_attachment(300, seed=1)
        b = preferential_attachment(300, seed=2)
        assert not all(np.array_equal(x, y) for x, y in
                       zip(a.edge_arrays(), b.edge_arrays()))

    def test_no_self_loops(self):
        g = preferential_attachment(400, seed=3)
        src, dst, _ = g.edge_arrays()
        assert not np.any(src == dst)

    def test_heavy_tailed_in_degree(self):
        g = preferential_attachment(3000, num_conn=3, seed=0)
        ind = g.in_degree()
        # a genuine hubs-and-spokes profile: top 1% of nodes hold far
        # more than 1% of the in-degree mass
        assert hub_spoke_ratio(ind) > 0.03
        fit = fit_power_law(ind, xmin=max(1, int(np.median(ind[ind > 0]))))
        assert 1.5 < fit.alpha < 5.0

    def test_community_mode_reduces_cross_edges(self):
        plain = preferential_attachment(1000, seed=0)
        comm = preferential_attachment(1000, locality_prob=0.94,
                                       community_mean=50, seed=0)
        # compare contiguous-chunk cut fractions
        from repro.graph import chunk_partition

        cut_plain = chunk_partition(plain, 8).cut_fraction()
        cut_comm = chunk_partition(comm, 8).cut_fraction()
        assert cut_comm < cut_plain * 0.8

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            preferential_attachment(0)
        with pytest.raises(ValueError):
            preferential_attachment(10, num_conn=0)
        with pytest.raises(ValueError):
            preferential_attachment(10, locality_prob=1.5)
        with pytest.raises(ValueError):
            preferential_attachment(10, community_mean=0)

    def test_locality_window_mode(self):
        g = preferential_attachment(800, locality_prob=0.9,
                                    locality_window=40, seed=0)
        src, dst, _ = g.edge_arrays()
        # most edges span less than a few windows
        spans = np.abs(src - dst)
        assert np.median(spans) < 120


class TestPaperGraphs:
    def test_specs_match_table2(self):
        assert GRAPH_A_SPEC["num_nodes"] == 280_000
        assert GRAPH_B_SPEC["num_nodes"] == 100_000

    def test_scaled_graph_a(self):
        g = make_paper_graph("A", scale=0.01, seed=0)
        assert g.num_nodes == 2800
        # Table II: ~3M edges at 280K nodes -> mean degree ~10.7
        assert 7 <= g.num_edges / g.num_nodes <= 14

    def test_scaled_graph_b_denser(self):
        a = make_paper_graph("A", scale=0.01, seed=0)
        b = make_paper_graph("B", scale=0.028, seed=0)  # same node count
        assert b.num_edges / b.num_nodes > a.num_edges / a.num_nodes

    def test_unknown_graph_rejected(self):
        with pytest.raises(ValueError, match="'A' or 'B'"):
            make_paper_graph("C")

    def test_minimum_size_floor(self):
        g = make_paper_graph("A", scale=1e-9, seed=0)
        assert g.num_nodes >= 64


class TestSimpleGenerators:
    def test_ring(self):
        g = ring_graph(5)
        assert g.num_edges == 5
        assert g.out_dst[g.out_ptr[4]:g.out_ptr[5]].tolist() == [0]

    def test_grid_bidirectional(self):
        g = grid_graph(3, 4)
        assert g.num_nodes == 12
        edges = set(zip(*(a.tolist() for a in g.edge_arrays()[:2])))
        assert {(0, 1), (1, 0), (0, 4), (4, 0)} <= edges
        assert (0, 5) not in edges

    def test_grid_edge_count(self):
        rows, cols = 3, 4
        g = grid_graph(rows, cols)
        expected = 2 * (rows * (cols - 1) + cols * (rows - 1))
        assert g.num_edges == expected

    def test_random_digraph_counts(self):
        g = random_digraph(50, 200, seed=0)
        assert g.num_nodes == 50
        assert g.num_edges == 200

    def test_random_digraph_no_self_loops(self):
        g = random_digraph(10, 500, seed=1)
        src, dst, _ = g.edge_arrays()
        assert not np.any(src == dst)

    def test_random_digraph_allows_self_loops_when_asked(self):
        g = random_digraph(5, 2000, seed=2, allow_self_loops=True)
        src, dst, _ = g.edge_arrays()
        assert np.any(src == dst)


class TestRandomWeights:
    def test_weight_range(self, small_graph):
        g = attach_random_weights(small_graph, low=1.0, high=10.0, seed=0)
        assert g.out_w.min() >= 1.0
        assert g.out_w.max() < 10.0

    def test_structure_preserved(self, small_graph):
        g = attach_random_weights(small_graph, seed=0)
        assert g.num_edges == small_graph.num_edges
        assert np.array_equal(g.out_dst, small_graph.out_dst)

    def test_deterministic(self, small_graph):
        a = attach_random_weights(small_graph, seed=5)
        b = attach_random_weights(small_graph, seed=5)
        assert np.array_equal(a.out_w, b.out_w)

    def test_rejects_bad_range(self, small_graph):
        with pytest.raises(ValueError):
            attach_random_weights(small_graph, low=5.0, high=5.0)
        with pytest.raises(ValueError, match="negative"):
            attach_random_weights(small_graph, low=-1.0, high=1.0)
