"""The one stable integer sort of the codebase.

NumPy's ``argsort(kind="stable")`` is an O(n) radix sort for 16-bit
integers but an O(n log n) comparison merge sort for int64 — several
times slower at shuffle and graph sizes — and node ids, part ids and
shuffle keys are all int64.  :func:`stable_key_order` therefore sorts
one 16-bit digit at a time, least significant first, each pass a
``uint16`` argsort: 16 bits is the widest digit NumPy radix-sorts.  The
number of passes comes from the observed span ``max - min`` of the
batch, not from the dtype: graph node ids and dictionary codes are
dense, so real batches take one or two passes and only adversarial
full-range keys take four.  There is no comparison fallback and nothing
to tune.

The columnar shuffle (:mod:`repro.engine.columnar`) groups and routes
through it; the graph layer (:mod:`repro.graph`) sorts edge lists by
endpoint through it (:func:`stable_pair_order`: a sort by ``(u, v)`` is
two stable passes, ``v`` first).
"""

from __future__ import annotations

import numpy as np

__all__ = ["stable_key_order", "stable_pair_order"]


def stable_key_order(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of int64 ``keys``: an LSD radix sort, O(n) per pass.

    Equal to ``np.argsort(keys, kind="stable")`` for every int64 input
    (the module docstring has the why).  One ``uint16`` argsort per
    16-bit digit that the observed span ``max - min`` occupies, least
    significant first; each pass being stable is what makes the passes
    compose, and what keeps emission order inside every key group.
    """
    if keys.dtype != np.int64:
        # The offsets below reinterpret 8-byte two's complement.
        raise TypeError(f"keys must be int64, got {keys.dtype}")
    n = len(keys)
    if n < 2:
        return np.arange(n)
    kmin = keys.min()
    span = int(keys.max()) - int(kmin)
    # int64 subtraction wraps modulo 2**64, so the uint64 view is the
    # true offset even when the span itself overflows int64.
    offsets = (keys - kmin).view(np.uint64)
    order = np.argsort(offsets.astype(np.uint16), kind="stable")
    while span >> 16:
        span >>= 16
        offsets >>= np.uint64(16)  # in place: ``offsets`` is private
        digit = offsets.astype(np.uint16)
        order = order[np.argsort(digit[order], kind="stable")]
    return order


def stable_pair_order(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """Stable argsort of int64 pairs by ``(major, minor)``: the
    permutation ``np.lexsort((minor, major))`` returns, as two kernel
    sorts — ``minor`` first, then ``major`` over that order."""
    order = stable_key_order(minor)
    return order[stable_key_order(major[order])]
