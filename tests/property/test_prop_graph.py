"""Property-based tests for the graph substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import (
    DiGraph,
    Partition,
    bfs_partition,
    chunk_partition,
    hash_partition,
    multilevel_partition,
    random_partition,
)


@st.composite
def digraphs(draw, max_nodes=40, max_edges=120):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    w = draw(st.lists(st.floats(0.1, 100.0, allow_nan=False), min_size=m, max_size=m))
    return DiGraph(n, src, dst, w)


class TestDigraphProperties:
    @settings(deadline=None, max_examples=60)
    @given(digraphs())
    def test_degree_sums_equal_edge_count(self, g):
        assert g.out_degree().sum() == g.num_edges
        assert g.in_degree().sum() == g.num_edges

    @settings(deadline=None, max_examples=60)
    @given(digraphs())
    def test_reverse_preserves_edge_multiset(self, g):
        r = g.reverse()
        fwd = sorted(zip(g.edge_src.tolist(), g.out_dst.tolist(), g.out_w.tolist()))
        rev = sorted(zip(r.out_dst.tolist(), r.edge_src.tolist(), r.out_w.tolist()))
        assert fwd == rev

    @settings(deadline=None, max_examples=40)
    @given(digraphs())
    def test_edge_arrays_rebuild_the_graph(self, g):
        assert DiGraph(g.num_nodes, *g.edge_arrays()) == g

    @settings(deadline=None, max_examples=60)
    @given(digraphs())
    def test_successor_slices_partition_edges(self, g):
        total = sum(len(g.successors(u)) for u in range(g.num_nodes))
        assert total == g.num_edges

    @settings(deadline=None, max_examples=40)
    @given(digraphs())
    def test_undirected_csr_degree_symmetry(self, g):
        ptr, nbr, w = g.undirected_csr()
        src = np.repeat(np.arange(g.num_nodes), np.diff(ptr))
        # undirected view: (u, v) present iff (v, u) present, same weight
        # (up to float summation order when merging parallel edges)
        table = {(int(a), int(b)): float(c) for a, b, c in zip(src, nbr, w)}
        for (u, v), weight in table.items():
            assert table[(v, u)] == pytest.approx(weight, rel=1e-9)


class TestPartitionProperties:
    @settings(deadline=None, max_examples=40)
    @given(digraphs(), st.integers(min_value=1, max_value=12),
           st.sampled_from(["multilevel", "bfs", "chunk", "hash", "random"]))
    def test_partition_is_always_valid_cover(self, g, k, method):
        from repro.graph import partition_graph

        p = partition_graph(g, k, method=method, seed=0)
        p.validate()
        assert p.part_sizes().sum() == g.num_nodes
        assert (p.assign >= 0).all() and (p.assign < p.k).all()

    @settings(deadline=None, max_examples=40)
    @given(digraphs(), st.integers(min_value=1, max_value=8))
    def test_cut_plus_internal_equals_edges(self, g, k):
        p = hash_partition(g, k)
        internal = (~p.cut_edge_mask()).sum()
        assert internal + p.edge_cut() == g.num_edges

    @settings(deadline=None, max_examples=40)
    @given(digraphs(), st.integers(min_value=1, max_value=8))
    def test_boundary_internal_disjoint_cover(self, g, k):
        p = random_partition(g, k, seed=1)
        b = set(p.boundary_nodes().tolist())
        i = set(p.internal_nodes().tolist())
        assert b.isdisjoint(i)
        assert b | i == set(range(g.num_nodes))

    @settings(deadline=None, max_examples=30)
    @given(digraphs(max_nodes=30, max_edges=80),
           st.integers(min_value=2, max_value=6))
    def test_multilevel_never_worse_than_worst_random(self, g, k):
        # sanity: the refined cut is never worse than 10 random tries' worst
        ml = multilevel_partition(g, k, seed=0).edge_cut()
        worst = max(random_partition(g, k, seed=s).edge_cut() for s in range(10))
        assert ml <= worst + max(1, g.num_edges // 10)

    @settings(deadline=None, max_examples=30)
    @given(digraphs(), st.integers(min_value=1, max_value=6))
    def test_bfs_chunk_balanced(self, g, k):
        for fn in (bfs_partition, chunk_partition):
            p = fn(g, k) if fn is chunk_partition else fn(g, k, seed=0)
            sizes = p.part_sizes()
            assert sizes.max() - sizes.min() <= max(1, g.num_nodes // k + 1)
