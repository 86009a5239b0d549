"""Tests for the §VI generality apps: async Jacobi solver and landmark APSP."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import (
    JacobiBlockSpec,
    SparseSystem,
    jacobi_spec,
    landmark_apsp,
    make_diagonally_dominant_system,
    sssp_reference,
)
from repro.cluster import SimCluster
from repro.graph import Partition, chunk_partition, multilevel_partition


@pytest.fixture(scope="module")
def system_and_partition():
    from repro.graph import preferential_attachment

    g = preferential_attachment(400, num_conn=3, locality_prob=0.94,
                                community_mean=40, seed=7)
    part = multilevel_partition(g, 4, seed=0)
    return make_diagonally_dominant_system(part, seed=1), part


class TestSparseSystem:
    def test_validation(self):
        with pytest.raises(ValueError, match="nonzero"):
            SparseSystem(2, np.array([0]), np.array([1]), np.array([1.0]),
                         np.array([0.0, 1.0]), np.zeros(2))
        with pytest.raises(ValueError, match="diag"):
            SparseSystem(2, np.array([0]), np.array([0]), np.array([1.0]),
                         np.ones(2), np.zeros(2))
        with pytest.raises(ValueError, match="equal length"):
            SparseSystem(2, np.array([0]), np.array([1, 1]), np.array([1.0]),
                         np.ones(2), np.zeros(2))

    @pytest.mark.parametrize("n,rows,cols,diag,b,match", [
        (0, [], [], np.ones(0), np.zeros(0), "n must be"),
        (2, [[0]], [[1]], np.ones(2), np.zeros(2), "1-D"),
        (2, [0], [1], np.ones(2), np.zeros(3), "shape"),
        (2, [0], [2], np.ones(2), np.zeros(2), "out of range"),
        (2, [-1], [1], np.ones(2), np.zeros(2), "out of range"),
    ])
    def test_shape_and_index_validation(self, n, rows, cols, diag, b, match):
        vals = np.ones(np.shape(rows))
        with pytest.raises(ValueError, match=match):
            SparseSystem(n, np.array(rows, dtype=np.int64),
                         np.array(cols, dtype=np.int64), vals, diag, b)

    def test_generated_system_dominant(self, system_and_partition):
        system, _ = system_and_partition
        assert system.is_diagonally_dominant()

    def test_dense_accumulates_duplicates(self):
        s = SparseSystem(2, np.array([0, 0]), np.array([1, 1]),
                         np.array([1.0, 2.0]), np.array([10.0, 10.0]),
                         np.zeros(2))
        assert s.dense()[0, 1] == 3.0

    def test_residual_norm_zero_at_solution(self, system_and_partition):
        system, _ = system_and_partition
        x = np.linalg.solve(system.dense(), system.b)
        assert system.residual_norm(x) < 1e-9

    def test_dominance_validation(self, system_and_partition):
        _, part = system_and_partition
        with pytest.raises(ValueError):
            make_diagonally_dominant_system(part, dominance=1.0)


class TestJacobiSolver:
    @pytest.mark.parametrize("mode", ["general", "eager"])
    def test_solves_system(self, system_and_partition, mode):
        system, part = system_and_partition
        exact = np.linalg.solve(system.dense(), system.b)
        res = jacobi_spec(system, part, mode=mode, tol=1e-10).run()
        assert np.abs(res.state - exact).max() < 1e-7
        assert res.converged
        assert system.residual_norm(res.state) < 1e-6

    def test_eager_fewer_global_iterations(self, system_and_partition):
        system, part = system_and_partition
        gen = jacobi_spec(system, part, mode="general").run()
        eag = jacobi_spec(system, part, mode="eager").run()
        assert eag.global_iters < gen.global_iters

    def test_eager_faster_sim_time(self, system_and_partition):
        system, part = system_and_partition
        gen = jacobi_spec(system, part, mode="general").run(SimCluster())
        eag = jacobi_spec(system, part, mode="eager").run(SimCluster())
        assert eag.sim_time < gen.sim_time

    def test_rejects_non_dominant_system(self, system_and_partition):
        _, part = system_and_partition
        n = part.graph.num_nodes
        bad = SparseSystem(n, np.array([0]), np.array([1]), np.array([5.0]),
                           np.ones(n), np.zeros(n))
        with pytest.raises(ValueError, match="dominant"):
            JacobiBlockSpec(bad, part)

    def test_size_mismatch_rejected(self, system_and_partition):
        system, part = system_and_partition
        from tests.inputs import ring_graph

        other = chunk_partition(ring_graph(5), 2)
        with pytest.raises(ValueError, match="match"):
            JacobiBlockSpec(system, other)


class TestLandmarkApsp:
    @pytest.fixture(scope="class")
    def apsp(self, weighted_graph, weighted_partition):
        return landmark_apsp(weighted_graph, weighted_partition,
                             num_landmarks=3, mode="eager", seed=0)

    def test_landmark_rows_exact(self, apsp, weighted_graph):
        for i, l in enumerate(apsp.landmarks):
            assert np.allclose(apsp.dist_from[i],
                               sssp_reference(weighted_graph, source=int(l)))

    def test_reverse_rows_exact(self, apsp, weighted_graph):
        rev = weighted_graph.reverse()
        for i, l in enumerate(apsp.landmarks):
            assert np.allclose(apsp.dist_to[i],
                               sssp_reference(rev, source=int(l)))

    def test_rows_bound_every_pair_through_a_landmark(self, apsp,
                                                      weighted_graph):
        # d(u, l) + d(l, v) >= d(u, v): the tables give an upper bound
        # for any pair, tight when u is itself a landmark
        for u in (5, 17, int(apsp.landmarks[0])):
            exact = sssp_reference(weighted_graph, source=u)
            via = (apsp.dist_to[:, u][:, None] + apsp.dist_from).min(axis=0)
            assert np.all(via >= exact - 1e-9)
            if u in apsp.landmarks:
                assert np.allclose(via, exact)

    def test_eager_cheaper_than_general(self, weighted_graph, weighted_partition):
        gen = landmark_apsp(weighted_graph, weighted_partition,
                            num_landmarks=2, mode="general",
                            cluster=SimCluster(), seed=0)
        eag = landmark_apsp(weighted_graph, weighted_partition,
                            num_landmarks=2, mode="eager",
                            cluster=SimCluster(), seed=0)
        assert eag.sim_time < gen.sim_time
        assert eag.global_iters < gen.global_iters

    def test_validation(self, weighted_graph, weighted_partition):
        with pytest.raises(ValueError):
            landmark_apsp(weighted_graph, weighted_partition, num_landmarks=0)
        with pytest.raises(ValueError):
            landmark_apsp(weighted_graph, weighted_partition,
                          num_landmarks=weighted_graph.num_nodes + 1)
