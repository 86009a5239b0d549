"""Tests for K-Means: Lloyd correctness, General vs Eager behaviour."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps import (
    KMeansBlockSpec,
    assign_points,
    kmeans,
    kmeans_reference,
    kmeans_spec,
    sse,
)
from repro.cluster import SimCluster
from repro.core import BlockSpec, DriverConfig, LocalSolveReport

from tests.inputs import gaussian_mixture


@pytest.fixture(scope="module")
def mixture():
    points, _ = gaussian_mixture(400, 4, num_dims=3, spread=0.3, seed=5)
    return points


class TestAssignAndSse:
    def test_assign_nearest(self):
        pts = np.array([[0.0], [1.0], [10.0]])
        cents = np.array([[0.5], [9.0]])
        assert assign_points(pts, cents).tolist() == [0, 0, 1]

    def test_assign_blockwise_matches_direct(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(500, 8))
        cents = rng.normal(size=(7, 8))
        direct = np.argmin(((pts[:, None, :] - cents[None]) ** 2).sum(-1), axis=1)
        assert np.array_equal(assign_points(pts, cents), direct)

    def test_assign_validation(self):
        with pytest.raises(ValueError):
            assign_points(np.zeros(3), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="dimension"):
            assign_points(np.zeros((3, 2)), np.zeros((2, 3)))

    def test_sse_zero_at_centroids(self):
        pts = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert sse(pts, pts.copy()) == 0.0

    def test_sse_positive(self, blob_points):
        pts, _ = blob_points
        cents = pts[:5]
        assert sse(pts, cents) > 0


class TestCorrectness:
    def test_general_equals_serial_lloyd(self, census_points):
        # count-weighted combine makes the distributed general mode an
        # exact Lloyd step, so it matches the serial oracle step for step
        got = kmeans(census_points, 6, mode="general", threshold=1e-3,
                     num_partitions=13, seed=4)
        expected = kmeans_reference(census_points, 6, threshold=1e-3, seed=4)
        assert np.allclose(got.centroids, expected, atol=1e-8)

    def test_centroids_are_weighted_means(self, census_points):
        res = kmeans(census_points, 5, mode="general", threshold=1e-4, seed=1)
        assignment = assign_points(census_points, res.centroids)
        for j in range(5):
            members = census_points[assignment == j]
            if len(members):
                # one more Lloyd step moves each centroid by < threshold-ish
                assert np.linalg.norm(res.centroids[j] - members.mean(0)) < 0.05

    def test_general_objective_nonincreasing(self, census_points):
        spec = KMeansBlockSpec(census_points, 6, num_partitions=8,
                               threshold=1e-6, seed=2,
                               oscillation_detection=False)
        state = spec.init_state()
        prev_obj = sse(census_points, state)
        for _ in range(8):
            reports = [spec.local_solve(p, state, max_local_iters=1)
                       for p in range(spec.num_partitions())]
            state, _, _ = spec.global_combine(state, reports)
            obj = sse(census_points, state)
            assert obj <= prev_obj + 1e-6
            prev_obj = obj

    def test_eager_quality_comparable(self, census_points):
        gen = kmeans(census_points, 6, mode="general", threshold=1e-3, seed=4)
        eag = kmeans(census_points, 6, mode="eager", threshold=1e-3, seed=4)
        assert sse(census_points, eag.centroids) <= 1.1 * sse(census_points, gen.centroids)

    def test_recovers_separated_blobs(self, blob_points):
        pts, labels = blob_points
        res = kmeans(pts, 5, mode="eager", threshold=1e-3,
                     num_partitions=6, seed=0)
        # every true cluster centre should be near some found centroid
        for c in range(5):
            centre = pts[labels == c].mean(0)
            dmin = np.linalg.norm(res.centroids - centre, axis=1).min()
            assert dmin < 1.0

    def test_deterministic_given_seed(self, census_points):
        a = kmeans(census_points, 4, mode="eager", seed=9)
        b = kmeans(census_points, 4, mode="eager", seed=9)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.global_iters == b.global_iters

    def test_validation(self, census_points):
        with pytest.raises(ValueError):
            KMeansBlockSpec(census_points, 0)
        with pytest.raises(ValueError):
            KMeansBlockSpec(census_points, 3, threshold=0)
        with pytest.raises(ValueError):
            KMeansBlockSpec(np.zeros((0, 2)), 1)

    @pytest.mark.parametrize("threshold", [0, -1])
    def test_rejects_nonpositive_threshold(self, census_points, threshold):
        """A threshold no shift can fall below would never let a local
        or global round converge."""
        with pytest.raises(ValueError, match="threshold"):
            KMeansBlockSpec(census_points, 3, threshold=threshold)

    def test_k_one(self, census_points):
        res = kmeans(census_points, 1, mode="general", threshold=1e-6, seed=0)
        assert np.allclose(res.centroids[0], census_points.mean(0), atol=1e-6)

    @pytest.mark.parametrize("kwargs", [{"num_partitions": 0},
                                        {"reshuffle_every": -1},
                                        {"k": 401}],
                             ids=["num_partitions", "reshuffle_every", "k"])
    def test_rejects_out_of_range_options(self, mixture, kwargs):
        args = {"k": 3, **kwargs}
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            KMeansBlockSpec(mixture, args.pop("k"), **args)

    @pytest.mark.parametrize("mode", ["general", "eager"])
    def test_reaches_reference_quality(self, mixture, mode):
        res = kmeans(mixture, 4, mode=mode, num_partitions=3, threshold=1e-3,
                     seed=2)
        ref = kmeans_reference(mixture, 4, threshold=1e-3, seed=2)
        assert res.converged
        assert sse(mixture, res.centroids) <= 1.05 * sse(mixture, ref)


class TestSpec:
    """``KMeansBlockSpec``'s contract, hook by hook."""

    def test_state_is_not_partition_scoped(self, mixture):
        """Every gmap reads the whole centroid table and the combine
        averages across partitions: neither the hierarchical nor the
        no-barrier backend may take it."""
        spec = KMeansBlockSpec(mixture, 3, seed=0)
        assert isinstance(spec, BlockSpec)
        assert spec.partition_scoped_state is False
        assert spec.supports_async is False

    def test_initial_centroids_are_distinct_data_points(self, mixture):
        spec = KMeansBlockSpec(mixture, 5, seed=7)
        state = spec.init_state()
        assert len({tuple(c) for c in state}) == 5
        for c in state:
            assert (mixture == c).all(axis=1).any()

    def test_init_state_restarts_from_the_reference_draw(self, mixture):
        """Each ``init_state`` rewinds the seed: the same centroids every
        time, and the ones ``kmeans_reference`` starts from."""
        spec = KMeansBlockSpec(mixture, 4, num_partitions=5, seed=3)
        first = spec.init_state()
        parts = [p.copy() for p in spec._parts]
        spec.on_global_iteration(5, first)  # repartitions
        again = spec.init_state()
        assert np.array_equal(first, again)
        assert all(np.array_equal(a, b) for a, b in zip(parts, spec._parts))
        start = kmeans_reference(mixture, 4, max_iters=0, seed=3)
        assert np.array_equal(first, start)

    def test_partitions_cover_every_point_once(self, mixture):
        spec = KMeansBlockSpec(mixture, 3, num_partitions=7, seed=0)
        for _ in range(2):
            sizes = [len(p) for p in spec._parts]
            assert len(sizes) == spec.num_partitions() == 7
            assert max(sizes) - min(sizes) <= 1
            assert np.array_equal(np.sort(np.concatenate(spec._parts)),
                                  np.arange(len(mixture)))
            spec.on_global_iteration(spec.reshuffle_every, None)
        tiny = KMeansBlockSpec(mixture[:4], 2, num_partitions=52, seed=0)
        assert tiny.num_partitions() == 4

    def test_local_solve_accounting(self, mixture):
        spec = KMeansBlockSpec(mixture, 4, num_partitions=3, seed=1)
        state = spec.init_state()
        d = mixture.shape[1]
        for p in range(3):
            rep = spec.local_solve(p, state, max_local_iters=5)
            assert rep.partition == p and 1 <= rep.local_iters <= 5
            assert rep.per_iter_ops == [float(len(spec._parts[p]) + 4)] \
                * rep.local_iters
            assert rep.shuffle_bytes == 4 * (d + 1) * 8
            sums, counts = rep.updates
            assert sums.shape == (4, d) and counts.sum() == len(spec._parts[p])

    def test_local_loop_stops_below_the_threshold(self, mixture):
        loose = KMeansBlockSpec(mixture, 4, num_partitions=2, threshold=1e9,
                                seed=1)
        rep = loose.local_solve(0, loose.init_state(), max_local_iters=100)
        assert rep.local_iters == 1
        tight = KMeansBlockSpec(mixture, 4, num_partitions=2, threshold=1e-12,
                                seed=1)
        rep = tight.local_solve(0, tight.init_state(), max_local_iters=3)
        assert rep.local_iters == 3

    def test_global_combine_weights_by_point_count(self):
        """Three points at 1.0 and one at 10.0 average to 3.25, not to
        the 5.5 of the two partitions' means."""
        spec = KMeansBlockSpec(np.array([[0.0], [1.0]]), 2, num_partitions=1,
                               seed=0)
        state = np.array([[0.0], [50.0]])
        reports = [
            LocalSolveReport(0, (np.array([[3.0], [0.0]]),
                                 np.array([3.0, 0.0])), 1, [1.0]),
            LocalSolveReport(1, (np.array([[10.0], [0.0]]),
                                 np.array([1.0, 0.0])), 1, [1.0]),
        ]
        new, reduce_ops, extra = spec.global_combine(state, reports)
        assert new.tolist() == [[3.25], [50.0]]
        assert reduce_ops == 4.0 and extra == 0

    @staticmethod
    def _shift_sequence(spec, shifts):
        """``global_converged`` over centroid moves of the given sizes."""
        prev = np.zeros((2, 1))
        out = []
        for s in shifts:
            curr = prev + np.array([[s], [0.0]])
            out.append(spec.global_converged(prev, curr))
            prev = curr
        return out

    def test_oscillation_window_is_four_rounds(self, mixture):
        """No new minimum shift within the last four rounds stops the
        run, at the eighth round at the earliest."""
        spec = KMeansBlockSpec(mixture, 2, threshold=1e-3, seed=0)
        spec.init_state()
        shifts = [1.0, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.97]
        got = self._shift_sequence(spec, shifts)
        assert [done for done, _ in got] == [False] * 7 + [True]
        assert [r for _, r in got] == pytest.approx(shifts)
        assert spec._criterion.oscillated

    def test_plain_threshold_without_oscillation_detection(self, mixture):
        spec = KMeansBlockSpec(mixture, 2, threshold=1e-3, seed=0,
                               oscillation_detection=False)
        shifts = [1.0, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.97, 5e-4]
        got = self._shift_sequence(spec, shifts)
        assert [done for done, _ in got] == [False] * 8 + [True]

    def test_state_nbytes_is_the_centroid_table(self, mixture):
        spec = KMeansBlockSpec(mixture, 6, seed=0)
        assert spec.state_nbytes(spec.init_state()) == 6 * 3 * 8


class TestPaperBehaviour:
    def test_eager_fewer_global_iterations(self, census_points):
        gen = kmeans(census_points, 6, mode="general", threshold=0.05, seed=4)
        eag = kmeans(census_points, 6, mode="eager", threshold=0.05, seed=4)
        assert eag.global_iters < gen.global_iters

    def test_iterations_grow_as_threshold_shrinks(self, census_points):
        loose = kmeans(census_points, 6, mode="general", threshold=0.5, seed=4)
        tight = kmeans(census_points, 6, mode="general", threshold=0.01, seed=4)
        assert loose.global_iters <= tight.global_iters

    def test_eager_faster_in_sim_time(self, census_points):
        gen = kmeans(census_points, 6, mode="general", threshold=0.05,
                     cluster=SimCluster(), seed=4)
        eag = kmeans(census_points, 6, mode="eager", threshold=0.05,
                     cluster=SimCluster(), seed=4)
        assert eag.sim_time < gen.sim_time

    def test_repartitioning_happens_in_eager(self, census_points):
        spec = KMeansBlockSpec(census_points, 4, num_partitions=6,
                               reshuffle_every=2, seed=0)
        before = [p.copy() for p in spec._parts]
        spec.on_global_iteration(2, None)
        after = spec._parts
        assert any(not np.array_equal(b, a) for b, a in zip(before, after))

    @pytest.mark.parametrize("mode,every", [("eager", 5), ("general", 0)])
    def test_entry_points_reshuffle_every_five_eager_rounds(
            self, census_points, monkeypatch, mode, every):
        """Both entry points repartition every 5 global rounds in eager
        mode and never in general mode."""
        built = []
        init = KMeansBlockSpec.__init__

        def recording_init(spec, *args, **kwargs):
            init(spec, *args, **kwargs)
            built.append(spec.reshuffle_every)

        monkeypatch.setattr(KMeansBlockSpec, "__init__", recording_init)
        kmeans(census_points, 4, mode=mode, num_partitions=6, seed=0,
               config=DriverConfig(mode=mode, max_global_iters=1))
        kmeans_spec(census_points, 4, mode=mode, num_partitions=6,
                    seed=0).make_backend(SimpleNamespace(cluster=None))
        assert built == [every, every]

    def test_no_repartitioning_when_disabled(self, census_points):
        spec = KMeansBlockSpec(census_points, 4, num_partitions=6,
                               reshuffle_every=0, seed=0)
        before = [p.copy() for p in spec._parts]
        spec.on_global_iteration(2, None)
        assert all(np.array_equal(b, a) for b, a in zip(before, spec._parts))

    def test_empty_cluster_keeps_previous_centroid(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
        spec = KMeansBlockSpec(pts, 2, num_partitions=1, threshold=1e-6,
                               seed=1, oscillation_detection=False)
        state = np.array([[0.05, 0.05], [100.0, 100.0]])  # far centroid empty
        reports = [spec.local_solve(0, state, max_local_iters=1)]
        new_state, _, _ = spec.global_combine(state, reports)
        assert np.allclose(new_state[1], [100.0, 100.0])
