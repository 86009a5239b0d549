"""DenseKVState: the dict-shaped array container and its app parity.

The dense state is a drop-in for the kv path's per-node dict — same
Mapping surface, same values — so every assertion here is equality
against the dict oracle, not closeness.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import pagerank, sssp
from repro.core import DenseKVState


class TestContainer:
    def test_mapping_surface_matches_dict(self):
        rows = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        state = DenseKVState(rows)
        oracle = {i: tuple(rows[i]) for i in range(3)}
        assert len(state) == len(oracle)
        assert list(state) == list(oracle)
        assert dict(state.items()) == oracle
        assert state[1] == oracle[1]
        assert 2 in state and 3 not in state

    def test_scatter_is_copy_plus_assign(self):
        state = DenseKVState(np.zeros((4, 1)))
        new = state.scatter(np.array([2, 0]), np.array([[5.0], [7.0]]))
        assert new is not state
        assert state.column(0).tolist() == [0.0, 0.0, 0.0, 0.0]
        assert new.column(0).tolist() == [7.0, 0.0, 5.0, 0.0]

    def test_scatter_pairs_matches_dict_update(self):
        state = DenseKVState(np.zeros((3, 2)))
        out = [(1, (2.0, 3.0)), (0, (4.0, 5.0))]
        new = state.scatter_pairs(out)
        oracle = dict(state.items())
        oracle.update({k: tuple(v) for k, v in out})
        assert dict(new.items()) == oracle

    def test_1d_rows_normalised(self):
        state = DenseKVState(np.arange(3, dtype=np.float64))
        assert state.width == 1
        assert state[2] == (2.0,)

    def test_keys_and_values_match_dict(self):
        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        state = DenseKVState(rows)
        oracle = {i: tuple(rows[i]) for i in range(2)}
        assert list(state.keys()) == list(oracle.keys())
        assert list(state.values()) == list(oracle.values())

    def test_rows_must_be_one_or_two_dimensional(self):
        with pytest.raises(ValueError, match="rows must be"):
            DenseKVState(np.zeros((2, 2, 2)))

    def test_scatter_of_flat_values_fills_width_one(self):
        state = DenseKVState(np.zeros(3))
        new = state.scatter(np.array([1]), np.array([9.0]))
        assert new.column(0).tolist() == [0.0, 9.0, 0.0]

    def test_scatter_of_no_pairs_is_an_unshared_copy(self):
        state = DenseKVState(np.ones((2, 1)))
        new = state.scatter_pairs([])
        assert dict(new.items()) == dict(state.items())
        new.rows[0, 0] = 5.0
        assert state[0] == (1.0,)


class TestAppParity:
    """dense_state=True reproduces the dict path's values exactly."""

    @pytest.mark.parametrize("mode", ["general", "eager"])
    def test_pagerank_identical(self, small_graph, small_partition, mode):
        dense = pagerank(small_graph, small_partition, mode=mode, path="kv",
                         dense_state=True)
        sparse = pagerank(small_graph, small_partition, mode=mode, path="kv")
        assert dense.global_iters == sparse.global_iters
        assert dense.converged == sparse.converged
        np.testing.assert_array_equal(dense.ranks, sparse.ranks)

    @pytest.mark.parametrize("mode", ["general", "eager"])
    def test_sssp_identical(self, weighted_graph, mode):
        from repro.graph import multilevel_partition

        part = multilevel_partition(weighted_graph, 4, seed=0)
        dense = sssp(weighted_graph, part, source=0, mode=mode, path="kv",
                     dense_state=True)
        sparse = sssp(weighted_graph, part, source=0, mode=mode, path="kv")
        assert dense.global_iters == sparse.global_iters
        np.testing.assert_array_equal(dense.distances, sparse.distances)
