"""The one stable integer sort of the codebase.

NumPy's ``argsort(kind="stable")`` is an O(n) radix sort for 16-bit
integers but an O(n log n) comparison merge sort for int64 — several
times slower at shuffle and graph sizes — and node ids, part ids and
shuffle keys are all int64.  :func:`stable_key_order` therefore sorts
on the observed span ``max - min`` of the batch, not on the dtype:

* a span that fits 16 bits takes one ``uint16`` argsort, NumPy's radix
  sort (dense dictionary codes, bucket ids, small graphs);
* anything wider takes ``ndarray.sort()`` — NumPy's SIMD sort — over
  one ``uint64`` *composite* word per record, ``(key - min) << nb |
  position`` with ``nb = (n - 1).bit_length()``.  The composites are
  distinct, so every correct sort of them returns the same
  permutation; the position in the low bits makes it the *stable* one,
  and keeping those bits is the order.  Unlike an unstable argsort, the
  result cannot depend on which SIMD kernel the CPU dispatches to.

A span wider than the ``64 - nb`` bits a composite has room for takes
one such sort per ``(64 - nb)``-bit digit, least significant first,
each over the order the previous one left: below 2**20 records that is
at most two sorts for any int64 input.

The order is the same on every machine; the speed of the wide path is
not.  It rests on NumPy dispatching a SIMD sort (AVX2 or AVX-512 on
x86).  A CPU with neither gets NumPy's scalar introsort, and there the
wide path is about 3x *slower* than the two 16-bit radix passes it
replaced (312k keys at span 250k on a 2-vCPU AVX-512 box with
``NPY_DISABLE_CPU_FEATURES`` set to every dispatch target: 8.9 ms
before, 26.4 ms now; 8.9 → 7.9 ms with AVX2 alone, 8.5 → 4.5 ms with
AVX-512).

The columnar shuffle (:mod:`repro.engine.columnar`) groups and routes
through it; the graph layer (:mod:`repro.graph`) sorts edge lists by
endpoint through it (:func:`stable_pair_order`: a sort by ``(u, v)`` is
two stable passes, ``v`` first).
"""

from __future__ import annotations

import numpy as np

__all__ = ["stable_key_order", "stable_pair_order"]


def stable_key_order(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of int64 ``keys``.

    Equal to ``np.argsort(keys, kind="stable")`` for every int64 input
    (the module docstring has the why).  One ``uint16`` radix argsort
    when the observed span ``max - min`` fits 16 bits; otherwise one
    SIMD sort of ``(offset << nb) | position`` composites per
    ``(64 - nb)``-bit digit of the span, least significant first, each
    pass stable by construction so the passes compose.
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
    if span < 1 << 16:
        return np.argsort(offsets.astype(np.uint16), kind="stable")
    nb = (n - 1).bit_length()
    width = 64 - nb  # offset bits a composite has room for
    positions = np.arange(n, dtype=np.uint64)
    low = np.uint64((1 << nb) - 1)
    bits = span.bit_length()
    order = None
    for shift in range(0, bits, width):
        if order is None:
            # The least significant digit.  When it is the only one,
            # the private ``offsets`` becomes the composite itself.
            word = offsets if bits <= width else offsets.copy()
        else:
            word = offsets[order]
            word >>= np.uint64(shift)
        # Shifting left drops the bits above this digit.
        word <<= np.uint64(nb)
        word |= positions
        word.sort()
        word &= low
        ranks = word.view(np.int64)
        order = ranks if order is None else order[ranks]
    return order


def stable_pair_order(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """Stable argsort of int64 pairs by ``(major, minor)``: the
    permutation ``np.lexsort((minor, major))`` returns, as two kernel
    sorts — ``minor`` first, then ``major`` over that order."""
    order = stable_key_order(minor)
    return order[stable_key_order(major[order])]
