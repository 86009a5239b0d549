"""Runtime property probes: permutation + regrouping invariance."""

from __future__ import annotations

import lint_fixtures as fixtures
import numpy as np
import pytest

from tools.reprolint import (
    probe_commutative,
    probe_permutation_invariant,
    results_equal,
)


class TestProbeCommutative:
    @pytest.mark.parametrize("agg", ["sum", "min", "max"])
    def test_named_aggregations_pass(self, agg):
        result = probe_commutative(agg)
        assert result.ok
        assert result.checks > 0
        assert "ok" in result.summary()

    def test_classic_summing_combiner_passes(self):
        assert probe_commutative(fixtures.summing_combine).ok

    def test_subtracting_combiner_fails(self):
        result = probe_commutative(fixtures.subtracting_combine)
        assert not result.ok
        assert not bool(result)
        assert any("permutation" in f or "regrouping" in f
                   for f in result.failures)

    def test_dividing_combiner_fails(self):
        assert not probe_commutative(fixtures.dividing_combine).ok

    def test_positional_combiner_fails(self):
        assert not probe_commutative(fixtures.positional_combine).ok

    def test_plain_fold_spelling(self):
        assert probe_commutative(sum).ok
        assert probe_commutative(min).ok

    def test_plain_fold_mean_fails_regrouping(self):
        # mean is permutation-invariant but NOT regroupable: the mean
        # of chunk means weights chunks, not values.
        def mean(values):
            return sum(values) / len(values)

        result = probe_commutative(mean)
        assert not result.ok
        assert all("regroup" in f for f in result.failures)

    def test_float_sum_tolerates_reassociation_noise(self):
        # Permuted/regrouped float sums differ in the last ulps; the
        # tolerance comparison must not flag that as non-commutativity.
        samples = [[0.1] * 11, [1e8, 1.0, -1e8, 1.0, 0.5]]

        def kahanless_sum(key, values, ctx):
            total = 0.0
            for v in values:
                total += v
            ctx.emit(key, total)

        assert probe_commutative(kahanless_sum, samples,
                                 rtol=1e-6, atol=1e-6).ok

    def test_custom_samples_and_determinism(self):
        samples = [[3.0, 1.0, 2.0]]
        a = probe_commutative("sum", samples, seed=5)
        b = probe_commutative("sum", samples, seed=5)
        assert a.checks == b.checks
        assert a.ok and b.ok

    def test_unknown_aggregation_rejected(self):
        with pytest.raises(ValueError, match="unknown aggregation"):
            probe_commutative("median")

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError, match="must be callable"):
            probe_commutative(42)

    def test_join_combiner_fails(self):
        result = probe_commutative(
            fixtures.joining_combine,
            samples=[["b", "a", "c"], ["x", "y"]])
        assert not result.ok

    def test_sorted_join_combiner_passes_permutations(self):
        # Order-insensitive but not decomposable: string partials are
        # not re-foldable values, so only permutations are checked.
        assert probe_commutative(
            fixtures.sorted_join_combine,
            samples=[["b", "a", "c"], ["x", "y"]], regroup=False).ok


class TestProbePermutationInvariant:
    def test_order_insensitive_fold_passes(self):
        result = probe_permutation_invariant(
            lambda items: sorted(items), [3, 1, 2, 5], name="sorted")
        assert result.ok
        assert result.function == "sorted"

    def test_order_sensitive_fold_fails(self):
        result = probe_permutation_invariant(
            lambda items: list(items), [3, 1, 2, 5])
        assert not result.ok


class TestResultsEqual:
    def test_float_tolerance(self):
        assert results_equal(0.1 + 0.2, 0.3)
        assert not results_equal(0.1, 0.2)

    def test_arrays(self):
        assert results_equal(np.array([1.0, 2.0]),
                             np.array([1.0, 2.0 + 1e-15]))
        assert not results_equal(np.array([1.0]), np.array([1.0, 2.0]))
        assert results_equal(np.array([1, 2]), np.array([1, 2]))

    def test_nested_containers(self):
        assert results_equal({"a": [1.0, (2.0, 3.0)]},
                             {"a": [1.0, (2.0, 3.0 + 1e-15)]})
        assert not results_equal({"a": 1.0}, {"b": 1.0})

    def test_nan_equal(self):
        assert results_equal(float("nan"), float("nan"))
