"""Tests for the partitioners and the Partition structure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import (
    DiGraph,
    Partition,
    bfs_partition,
    chunk_partition,
    hash_partition,
    multilevel_partition,
    partition_graph,
    random_partition,
)

from tests.inputs import grid_graph

ALL_METHODS = ("multilevel", "bfs", "chunk", "hash", "random")


class TestPartitionStructure:
    def test_parts_cover_all_nodes(self, small_graph):
        p = hash_partition(small_graph, 5)
        assert sum(len(part) for part in p.parts()) == small_graph.num_nodes
        joined = np.sort(np.concatenate(p.parts()))
        assert np.array_equal(joined, np.arange(small_graph.num_nodes))

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_each_part_ascending_and_together_a_permutation(self, small_graph,
                                                            method):
        # parts() slices one stable sort by part id and sorts nothing
        # itself: k = 37 leaves parts of every size, 500 leaves empties
        for k in (37, 500):
            parts = partition_graph(small_graph, k, method=method).parts()
            assert len(parts) == k
            assert all(np.all(np.diff(part) > 0) for part in parts)
            assert np.array_equal(np.sort(np.concatenate(parts)),
                                  np.arange(small_graph.num_nodes))

    def test_part_sizes_match_parts(self, small_graph):
        p = random_partition(small_graph, 7, seed=0)
        sizes = p.part_sizes()
        for i, part in enumerate(p.parts()):
            assert len(part) == sizes[i]

    def test_parts_cached_across_accesses(self, small_graph):
        # the derived node arrays are built lazily exactly once; hot
        # paths (per-round partition_input, the columnar gmap caches)
        # call parts() repeatedly and must not pay a recompute
        p = hash_partition(small_graph, 5)
        first = p.parts()
        assert p.parts() is first
        assert all(a is b for a, b in zip(p.parts(), first))

    def test_cut_edge_mask_cached_across_accesses(self, small_graph):
        p = random_partition(small_graph, 3, seed=1)
        mask = p.cut_edge_mask()
        assert p.cut_edge_mask() is mask
        # dependent statistics reuse the cached mask, not a recompute
        assert p.edge_cut() == int(mask.sum())

    def test_edge_cut_definition(self, tiny_graph):
        # split {0,1,2} vs {3,4,5}: no edges cross
        p = Partition(tiny_graph, np.array([0, 0, 0, 1, 1, 1]), 2)
        assert p.edge_cut() == 0
        # split {0,1} vs rest: edges 0->2,1->2,2->0 cross
        p2 = Partition(tiny_graph, np.array([0, 0, 1, 1, 1, 1]), 2)
        assert p2.edge_cut() == 3

    def test_cut_fraction_empty_graph(self):
        g = DiGraph(3, [], [])
        p = hash_partition(g, 2)
        assert p.cut_fraction() == 0.0

    def test_boundary_and_internal_partition_nodes(self, tiny_graph):
        p = Partition(tiny_graph, np.array([0, 0, 1, 1, 1, 1]), 2)
        boundary = set(p.boundary_nodes().tolist())
        assert boundary == {0, 1, 2}
        internal = set(p.internal_nodes().tolist())
        assert internal == {3, 4, 5}
        assert boundary | internal == set(range(6))

    def test_balance_perfect(self, small_graph):
        p = chunk_partition(small_graph, 4)
        assert p.balance() == pytest.approx(1.0, abs=0.02)

    def test_balance_with_k_exceeding_n(self):
        g = DiGraph(3, [0], [1])
        p = Partition(g, np.array([0, 1, 2]), 10)
        assert p.balance() == pytest.approx(1.0)

    def test_nonempty_parts(self):
        g = DiGraph(3, [0], [1])
        p = Partition(g, np.array([0, 0, 2]), 5)
        assert p.nonempty_parts() == 2

    def test_invalid_assign_shape(self, tiny_graph):
        with pytest.raises(ValueError, match="shape"):
            Partition(tiny_graph, np.zeros(3, dtype=np.int64), 2)

    def test_invalid_part_ids(self, tiny_graph):
        with pytest.raises(ValueError, match="outside"):
            Partition(tiny_graph, np.array([0, 0, 0, 0, 0, 9]), 2)

    def test_invalid_k(self, tiny_graph):
        with pytest.raises(ValueError):
            Partition(tiny_graph, np.zeros(6, dtype=np.int64), 0)

    def test_validate_passes(self, small_graph):
        multilevel_partition(small_graph, 3, seed=0).validate()


class TestPartitioners:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_every_method_is_a_valid_cover(self, small_graph, method):
        p = partition_graph(small_graph, 6, method=method)
        p.validate()
        assert p.k == 6
        assert p.part_sizes().sum() == small_graph.num_nodes

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_k_equals_one(self, small_graph, method):
        p = partition_graph(small_graph, 1, method=method)
        assert p.edge_cut() == 0
        assert p.nonempty_parts() == 1

    def test_k_at_least_n_gives_singletons(self, small_graph):
        p = multilevel_partition(small_graph, small_graph.num_nodes * 2)
        assert np.array_equal(p.assign, np.arange(small_graph.num_nodes))

    def test_hash_partition_formula(self, small_graph):
        p = hash_partition(small_graph, 3)
        assert np.array_equal(p.assign, np.arange(small_graph.num_nodes) % 3)

    def test_chunk_partition_contiguous(self, small_graph):
        p = chunk_partition(small_graph, 5)
        assert np.all(np.diff(p.assign) >= 0)  # non-decreasing part ids

    def test_random_partition_balanced(self, small_graph):
        p = random_partition(small_graph, 8, seed=0)
        sizes = p.part_sizes()
        assert sizes.max() - sizes.min() <= 1

    def test_bfs_partition_balanced(self, small_graph):
        p = bfs_partition(small_graph, 8, seed=0)
        sizes = p.part_sizes()
        assert sizes.max() - sizes.min() <= 1

    def test_bfs_partition_empty_graph(self):
        g = DiGraph(0, [], [])
        p = bfs_partition(g, 3)
        assert p.part_sizes().sum() == 0

    def test_multilevel_balance_tolerance(self, small_graph):
        p = multilevel_partition(small_graph, 8, seed=0)
        assert p.balance() <= 1.25

    def test_multilevel_beats_hash_on_cut(self, small_graph):
        ml = multilevel_partition(small_graph, 8, seed=0)
        h = hash_partition(small_graph, 8)
        assert ml.edge_cut() < h.edge_cut()

    def test_locality_methods_beat_oblivious_on_community_graph(self, small_graph):
        # the ablation's premise: locality-aware partitioning cuts less
        for good in ("multilevel", "chunk"):
            for bad in ("hash", "random"):
                g_cut = partition_graph(small_graph, 8, method=good).cut_fraction()
                b_cut = partition_graph(small_graph, 8, method=bad).cut_fraction()
                assert g_cut < b_cut, f"{good} should beat {bad}"

    def test_multilevel_on_grid(self):
        # a 2-way split of a grid should cut roughly one row/column's
        # worth of edges, far less than half of all edges
        g = grid_graph(16, 16)
        p = multilevel_partition(g, 2, seed=0)
        assert p.cut_fraction() < 0.2
        assert p.balance() < 1.2

    def test_multilevel_deterministic_with_seed(self, small_graph):
        a = multilevel_partition(small_graph, 4, seed=9)
        b = multilevel_partition(small_graph, 4, seed=9)
        assert np.array_equal(a.assign, b.assign)

    def test_unknown_method_rejected(self, small_graph):
        with pytest.raises(ValueError, match="unknown partitioner"):
            partition_graph(small_graph, 2, method="metis")

    def test_k_zero_rejected(self, small_graph):
        with pytest.raises(ValueError):
            multilevel_partition(small_graph, 0)

    def test_disconnected_graph_handled(self):
        # two disjoint triangles plus isolated nodes
        g = DiGraph(8, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3])
        for method in ALL_METHODS:
            p = partition_graph(g, 2, method=method)
            p.validate()

    def test_multilevel_odd_k(self, small_graph):
        p = multilevel_partition(small_graph, 5, seed=0)
        assert p.k == 5
        assert p.nonempty_parts() == 5
