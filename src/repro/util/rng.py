"""Deterministic random-number-generator plumbing.

All stochastic components (graph generators, fault injection, K-Means
initialisation, ...) accept a ``seed`` argument which may be ``None``, an
integer, or an existing :class:`numpy.random.Generator`.  Centralising the
coercion here guarantees that "same seed => same output" holds across the
whole library, which the deterministic-replay fault-tolerance tests rely
on.
"""

from __future__ import annotations

import numpy as np


def as_rng(seed: "int | np.random.Generator | None") -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged (shared state);
    passing an int builds a fresh PCG64 generator; ``None`` builds an
    OS-entropy-seeded generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
