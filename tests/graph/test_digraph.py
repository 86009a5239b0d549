"""Tests for the CSR digraph container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import DiGraph


@pytest.fixture()
def g() -> DiGraph:
    # 0->1(2.0), 0->2, 1->2, 2->0, 3->3? no self loops here; 3 isolated.
    return DiGraph(4, [0, 0, 1, 2], [1, 2, 2, 0], [2.0, 1.0, 1.0, 5.0])


class TestConstruction:
    def test_counts(self, g):
        assert g.num_nodes == 4
        assert g.num_edges == 4

    def test_empty_graph(self):
        g = DiGraph(3, [], [])
        assert g.num_edges == 0
        assert g.out_degree().tolist() == [0, 0, 0]

    def test_zero_nodes(self):
        g = DiGraph(0, [], [])
        assert g.num_nodes == 0

    def test_negative_nodes_rejected(self):
        with pytest.raises(ValueError):
            DiGraph(-1, [], [])

    def test_out_of_range_src_rejected(self):
        with pytest.raises(ValueError, match="src"):
            DiGraph(2, [2], [0])

    def test_out_of_range_dst_rejected(self):
        with pytest.raises(ValueError, match="dst"):
            DiGraph(2, [0], [5])

    def test_mismatched_weights_rejected(self):
        with pytest.raises(ValueError):
            DiGraph(2, [0], [1], [1.0, 2.0])

    def test_default_weights_are_one(self):
        g = DiGraph(2, [0], [1])
        assert g.out_w.tolist() == [1.0]

    def test_parallel_edges_preserved(self):
        g = DiGraph(2, [0, 0], [1, 1])
        assert g.num_edges == 2
        assert g.out_dst[g.out_ptr[0]:g.out_ptr[1]].tolist() == [1, 1]

    def test_edges_sorted_by_src(self, g):
        src, _, _ = g.edge_arrays()
        assert np.all(src[:-1] <= src[1:])

    def test_sort_orders_each_out_list_by_dst(self):
        g = DiGraph(3, [0, 0, 1], [2, 1, 0], [5.0, 7.0, 1.0])
        assert g.out_dst.tolist() == [1, 2, 0]
        assert g.out_w.tolist() == [7.0, 5.0, 1.0]  # weights follow

    def test_sort_is_stable_for_parallel_edges(self):
        # merged_csr sums parallel weights in this order
        g = DiGraph(2, [0, 0, 0], [1, 1, 1], [3.0, 1.0, 2.0])
        assert g.out_w.tolist() == [3.0, 1.0, 2.0]

class TestAccessors:
    def test_out_degree(self, g):
        assert g.out_degree().tolist() == [2, 1, 1, 0]

    def test_in_degree(self, g):
        assert g.in_degree().tolist() == [1, 1, 2, 0]

    def test_out_slices(self, g):
        assert g.out_dst[g.out_ptr[0]:g.out_ptr[1]].tolist() == [1, 2]
        assert g.out_dst[g.out_ptr[3]:g.out_ptr[4]].tolist() == []

    def test_out_weight_slices_aligned(self, g):
        assert g.out_w[g.out_ptr[0]:g.out_ptr[1]].tolist() == [2.0, 1.0]

    def test_edge_arrays_are_views(self, g):
        src, dst, w = g.edge_arrays()
        assert dst is g.out_dst and w is g.out_w
        assert src is g.edge_arrays()[0]


class TestTransforms:
    def test_with_weights(self, g):
        g2 = g.with_weights(np.full(4, 9.0))
        assert g2.out_w.tolist() == [9.0] * 4
        # structure unchanged
        assert g2.out_ptr.tolist() == g.out_ptr.tolist()
        assert g2.out_dst.tolist() == g.out_dst.tolist()

    def test_with_weights_shares_the_structure_arrays(self, g):
        g2 = g.with_weights(np.full(4, 9.0))
        assert g2.edge_arrays()[0] is g.edge_arrays()[0]
        assert g2.out_dst is g.out_dst

    def test_with_weights_wrong_length(self, g):
        with pytest.raises(ValueError):
            g.with_weights(np.ones(3))

    def test_reverse_degrees_swap(self, g):
        r = g.reverse()
        assert r.out_degree().tolist() == g.in_degree().tolist()
        assert r.in_degree().tolist() == g.out_degree().tolist()

    def test_reverse_carries_weights(self, g):
        src, dst, w = g.reverse().edge_arrays()
        assert list(zip(src.tolist(), dst.tolist(), w.tolist())) == [
            (0, 2, 5.0), (1, 0, 2.0), (2, 0, 1.0), (2, 1, 1.0)]

    def test_reverse_twice_is_identity(self, g):
        rr = g.reverse().reverse()
        assert rr.num_nodes == g.num_nodes
        for got, want in zip(rr.edge_arrays(), g.edge_arrays()):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_undirected_csr_symmetric(self, g):
        ptr, nbr, w = g.undirected_csr()
        # every undirected edge appears from both endpoints
        src = np.repeat(np.arange(g.num_nodes), np.diff(ptr))
        pairs = set(zip(src.tolist(), nbr.tolist()))
        for u, v in list(pairs):
            assert (v, u) in pairs

    def test_undirected_csr_merges_duplicates(self):
        # 0->1 and 1->0 merge into one undirected edge of weight 2 per side
        g = DiGraph(2, [0, 1], [1, 0], [1.0, 1.0])
        ptr, nbr, w = g.undirected_csr()
        assert len(nbr) == 2  # one neighbour entry per endpoint
        assert w.tolist() == [2.0, 2.0]

    def test_undirected_csr_drops_self_loops(self):
        g = DiGraph(2, [0, 0], [0, 1])
        ptr, nbr, _ = g.undirected_csr()
        src = np.repeat(np.arange(2), np.diff(ptr))
        assert not np.any(src == nbr)

    def test_undirected_csr_of_an_edgeless_graph(self):
        ptr, nbr, w = DiGraph(3, [], []).undirected_csr()
        assert ptr.tolist() == [0, 0, 0, 0]
        assert len(nbr) == 0 and len(w) == 0


class TestDunder:
    def test_repr(self, g):
        assert repr(g) == "DiGraph(n=4, m=4)"
