"""The masked difference every answer check and convergence test reads."""

from __future__ import annotations

import numpy as np


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """The largest ``|a - b|`` of two same-shape arrays, an entry equal
    on both sides (``inf == inf`` included) counting 0; 0.0 when empty."""
    if not len(a):
        return 0.0
    with np.errstate(invalid="ignore"):  # inf - inf, masked below
        diff = np.abs(a - b)
    diff[a == b] = 0
    return float(diff.max())
