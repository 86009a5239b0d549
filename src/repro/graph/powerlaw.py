"""Power-law fitting for degree distributions.

Table II's justification for the inputs is that "the best-fit for inlinks
in the two input graphs yields the power-law exponent for the graphs,
demonstrating their conformity with the hubs-and-spokes model" (§V-B.3).
This module reproduces that check: fit an exponent to a degree sample and
report tail statistics, so the Table II bench can print the same evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util import check_array_1d

__all__ = ["PowerLawFit", "fit_power_law", "hub_spoke_ratio"]


@dataclass(frozen=True)
class PowerLawFit:
    """Result of a discrete power-law fit ``P(X = x) ~ x^-alpha`` for x >= xmin."""

    alpha: float
    xmin: int
    n_tail: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"alpha={self.alpha:.3f} (xmin={self.xmin}, tail n={self.n_tail})"


def fit_power_law(degrees: np.ndarray, *, xmin: int = 1) -> PowerLawFit:
    """Maximum-likelihood exponent for a discrete power-law tail.

    Uses the standard continuous-approximation MLE (Clauset, Shalizi &
    Newman 2009, eq. 3.7 with the -1/2 discreteness correction):

    ``alpha = 1 + n / sum(ln(x_i / (xmin - 1/2)))`` over ``x_i >= xmin``.

    Parameters
    ----------
    degrees:
        Degree sample (non-negative integers; zeros are ignored since a
        power law is only defined on positive support).
    xmin:
        Lower cutoff of the tail to fit.

    Returns
    -------
    PowerLawFit
        Fitted exponent with the tail size used.
    """
    d = check_array_1d("degrees", np.asarray(degrees))
    if xmin < 1:
        raise ValueError(f"xmin must be >= 1, got {xmin}")
    tail = d[d >= xmin].astype(np.float64)
    if len(tail) < 2:
        raise ValueError(
            f"need at least 2 observations >= xmin={xmin}, got {len(tail)}"
        )
    alpha = 1.0 + len(tail) / np.log(tail / (xmin - 0.5)).sum()
    return PowerLawFit(alpha=float(alpha), xmin=xmin, n_tail=int(len(tail)))


def hub_spoke_ratio(degrees: np.ndarray, *, hub_quantile: float = 0.99) -> float:
    """Share of total degree mass held by the top ``1 - hub_quantile`` of nodes.

    A heavy-tailed ("hubs and spokes") graph concentrates a large share of
    edges on very few nodes; this statistic quantifies the paper's "very
    few nodes have very high inlink values" observation.  Exactly the
    ``ceil(n * (1 - hub_quantile))`` largest entries are counted, so a
    uniform distribution scores ~``1 - hub_quantile``.
    """
    if not 0.0 < hub_quantile < 1.0:
        raise ValueError(f"hub_quantile must be in (0, 1), got {hub_quantile}")
    d = check_array_1d("degrees", np.asarray(degrees, dtype=np.float64))
    if len(d) == 0:
        return 0.0
    total = d.sum()
    if total == 0:
        return 0.0
    top = max(1, int(np.ceil(len(d) * (1.0 - hub_quantile))))
    largest = np.partition(d, len(d) - top)[len(d) - top:]
    return float(largest.sum() / total)
