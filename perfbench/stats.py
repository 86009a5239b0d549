"""Order statistics used by the runner and by ``compare``.

Quartiles follow ``statistics.quantiles(values, n=4)`` exactly — the
convention the PR driver uses to judge run-to-run spread — so a spread
computed here is the spread the driver will see.
"""

from __future__ import annotations

import statistics
from typing import Sequence

__all__ = ["median", "quartiles", "relative_spread", "tail_percentile"]

#: A tail percentile is only reported with this many samples beyond it
#: (choosing-metrics §1).
TAIL_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of ``values`` (0.0 for an empty sequence)."""
    return float(statistics.median(values)) if values else 0.0


def quartiles(values: Sequence[float]) -> "tuple[float, float, float]":
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if not values:
        return 0.0, 0.0, 0.0
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 when the
    median is 0 — an all-zero metric has no relative spread)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def tail_percentile(values: Sequence[float]) -> "tuple[float, float]":
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)`` with the percentile in ``[0, 100)``.
    With ``n`` sorted samples the chosen order statistic is index
    ``n - 11`` (ten samples lie strictly after it), i.e. percentile
    ``100 * (n - 10) / n``.  Fewer than eleven samples cannot support a
    tail: the median is returned as percentile 50.
    """
    if not values:
        return 0.0, 0.0
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    if n <= TAIL_SAMPLES_BEYOND:
        return 50.0, median(ordered)
    return 100.0 * (n - TAIL_SAMPLES_BEYOND) / n, ordered[n - TAIL_SAMPLES_BEYOND - 1]
