"""Quartile and tail-percentile helpers."""

import statistics

import pytest

from perfbench.stats import median, quartiles, relative_spread, tail_percentile


def test_quartiles_follow_statistics_quantiles():
    values = [2.31, 2.40, 2.28, 2.52, 2.35, 2.61, 2.33, 2.29, 2.44, 2.38]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, q2, q3 = quartiles(values)
    assert q2 == median(values)
    assert relative_spread(values) == pytest.approx((q3 - q1) / q2)


def test_quartiles_degenerate_inputs():
    assert quartiles([]) == (0.0, 0.0, 0.0)
    assert quartiles([3.5]) == (3.5, 3.5, 3.5)
    assert relative_spread([0.0, 0.0, 0.0]) == 0.0
    assert median([]) == 0.0


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 101))           # 1..100, already sorted
    pct, value = tail_percentile(values)
    assert pct == 90.0
    assert value == 90
    assert sum(1 for v in values if v > value) == 10


def test_tail_percentile_rises_with_sample_count():
    pct_small, _ = tail_percentile(list(range(20)))
    pct_large, _ = tail_percentile(list(range(1000)))
    assert pct_small == 50.0
    assert pct_large == 99.0


def test_tail_percentile_needs_eleven_samples():
    pct, value = tail_percentile([5.0, 1.0, 3.0])
    assert (pct, value) == (50.0, 3.0)
    assert tail_percentile([]) == (0.0, 0.0)
