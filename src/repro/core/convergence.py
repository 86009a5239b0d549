"""K-Means' stopping rule: centroid movement with oscillation detection.

Eager K-Means stops on a centroid-movement threshold *or* on detected
oscillation ("the convergence condition includes detection of
oscillations along with the Euclidean metric", §V-D, after Yom-Tov &
Slonim).  The criterion is a small stateful object: feed it successive
centroid arrays through ``update``; it also exposes its last residual
for the iteration traces the benchmarks print.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CentroidShiftCriterion"]


class CentroidShiftCriterion:
    """K-Means stopping rule: max centroid movement below delta, or oscillation.

    The oscillation condition is the Yom-Tov & Slonim refinement the
    paper adopts for Eager K-Means (§V-D): when the residual sequence
    stops making progress — no new minimum within the last ``window``
    iterations, i.e. the centroids are bouncing inside their sampling
    noise floor rather than still descending — the run is declared
    converged-by-oscillation even though the plain Euclidean threshold
    was never reached.
    """

    def __init__(self, tol: float, *, window: int = 6) -> None:
        if tol <= 0:
            raise ValueError(f"tol must be > 0, got {tol}")
        if window < 2:
            raise ValueError("window must be >= 2")
        self.tol = tol
        self.window = window
        self._last = float("inf")
        self._history: list[float] = []
        self.oscillated = False

    def residual(self, prev: np.ndarray, curr: np.ndarray) -> float:
        prev = np.asarray(prev, dtype=np.float64)
        curr = np.asarray(curr, dtype=np.float64)
        if prev.shape != curr.shape:
            raise ValueError(f"shape mismatch: {prev.shape} vs {curr.shape}")
        if prev.ndim != 2:
            raise ValueError("centroid arrays must be 2-D (k, dims)")
        if prev.size == 0:
            return 0.0
        return float(np.linalg.norm(curr - prev, axis=1).max())

    def update(self, prev: np.ndarray, curr: np.ndarray) -> bool:
        """Record a transition; return True when converged."""
        self._last = float(self.residual(prev, curr))
        self._history.append(self._last)
        if self._last < self.tol:
            return True
        h = self._history
        if len(h) >= 2 * self.window:
            best_before = min(h[:-self.window])
            best_recent = min(h[-self.window:])
            if best_recent >= best_before:
                self.oscillated = True
                return True
        return False

    def reset(self) -> None:
        """Forget history (reused between local solves)."""
        self._last = float("inf")
        self._history = []
        self.oscillated = False

    @property
    def last_residual(self) -> float:
        """Residual of the most recent transition (inf before any)."""
        return self._last
