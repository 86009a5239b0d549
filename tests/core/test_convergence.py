"""Tests for K-Means' centroid-shift convergence criterion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CentroidShiftCriterion


class TestCentroidShift:
    def test_threshold_stop(self):
        c = CentroidShiftCriterion(0.5)
        prev = np.zeros((2, 3))
        assert not c.update(prev, prev + 1.0)
        assert c.update(prev, prev + 0.1)

    def test_residual_is_max_row_norm(self):
        c = CentroidShiftCriterion(1e-9)
        prev = np.zeros((2, 2))
        curr = np.array([[3.0, 4.0], [0.0, 0.1]])
        c.update(prev, curr)
        assert c.last_residual == pytest.approx(5.0)

    def test_oscillation_detected_on_plateau(self):
        c = CentroidShiftCriterion(1e-6, window=3)
        prev = np.zeros((1, 1))
        # residuals: decreasing then bouncing around 0.5 forever
        seq = [4.0, 2.0, 1.0, 0.5, 0.55, 0.52, 0.57, 0.51, 0.56, 0.53]
        fired = None
        for i, r in enumerate(seq):
            if c.update(prev, prev + r):
                fired = i
                break
        assert fired is not None and fired >= 5
        assert c.oscillated

    def test_steady_decrease_not_oscillation(self):
        c = CentroidShiftCriterion(1e-9, window=3)
        prev = np.zeros((1, 1))
        for r in [1.0, 0.5, 0.25, 0.12, 0.06, 0.03, 0.015, 0.008]:
            assert not c.update(prev, prev + r)
        assert not c.oscillated

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            CentroidShiftCriterion(1.0).update(np.zeros(3), np.zeros(3))

    def test_reset_clears_history(self):
        c = CentroidShiftCriterion(1e-6, window=2)
        prev = np.zeros((1, 1))
        for r in [1.0, 1.0, 1.0, 1.0]:
            c.update(prev, prev + r)
        c.reset()
        assert not c.oscillated
        assert c.last_residual == float("inf")

    def test_window_validation(self):
        with pytest.raises(ValueError):
            CentroidShiftCriterion(1.0, window=1)

    @pytest.mark.parametrize("tol", [0.0, -1e-3])
    def test_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be > 0"):
            CentroidShiftCriterion(tol)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            CentroidShiftCriterion(1.0).update(np.zeros((2, 3)),
                                               np.zeros((3, 3)))

    def test_empty_centroid_set_converges(self):
        c = CentroidShiftCriterion(1e-9)
        assert c.update(np.zeros((0, 4)), np.zeros((0, 4)))
        assert c.last_residual == 0.0

    def test_residual_is_inf_before_any_update(self):
        assert CentroidShiftCriterion(1.0).last_residual == float("inf")

    def test_tol_is_a_strict_bound(self):
        c = CentroidShiftCriterion(0.5)
        prev = np.zeros((1, 2))
        assert not c.update(prev, prev + np.array([[0.5, 0.0]]))
        assert c.last_residual == 0.5

    def test_oscillation_needs_two_full_windows(self):
        c = CentroidShiftCriterion(1e-6, window=3)
        prev = np.zeros((1, 1))
        fired = [c.update(prev, prev + 1.0) for _ in range(6)]
        # a flat residual makes no new minimum, but the rule only judges
        # once a window of history precedes the recent window
        assert fired == [False] * 5 + [True]
        assert c.oscillated

    def test_reset_makes_the_criterion_reusable(self):
        seq = [4.0, 2.0, 1.0, 0.5, 0.55, 0.52, 0.57, 0.51, 0.56, 0.53]
        prev = np.zeros((1, 1))

        def first_fire(c):
            return next(i for i, r in enumerate(seq)
                        if c.update(prev, prev + r))

        c = CentroidShiftCriterion(1e-6, window=3)
        fresh = first_fire(c)
        c.reset()
        assert first_fire(c) == fresh
        assert c.oscillated
