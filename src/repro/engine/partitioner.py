"""Key -> reducer partitioners.

The partitioner decides which reduce task receives a key.  Hash
partitioning (Hadoop's default) must be *stable across processes*, so we
avoid Python's randomised ``hash`` for strings and use a deterministic
FNV-1a, keeping the cross-executor equivalence guarantee (serial ==
threads == processes) testable.
"""

from __future__ import annotations

import bisect
import struct
from typing import Any, Callable, Hashable

import numpy as np

__all__ = ["stable_hash", "HashPartitioner", "RangePartitioner", "Partitioner"]

Partitioner = Callable[[Any, int], int]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

#: Per-process memo of :func:`stable_hash` for keys whose type is
#: *exactly* ``int`` or ``str`` (an int never equals a str, so one dict
#: serves both), cleared when it reaches ``_MEMO_MAX`` entries.
_MEMO: "dict[int | str, int]" = {}
_MEMO_MAX = 1 << 16


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def stable_hash(key: Hashable) -> int:
    """A deterministic, process-stable hash for common key types.

    Supports ints, floats, strings, bytes, bools, None and (nested)
    tuples of these.  Unknown types raise ``TypeError`` rather than
    silently using the per-process randomised ``hash``.

    The hash is 64-bit FNV-1a over a one-byte type tag followed by the
    key's bytes: ``None`` -> ``00 "none"``; ``bool`` -> ``01`` + one
    byte; ``int`` -> ``02`` + 16 bytes little-endian two's complement
    (``OverflowError`` outside 128 bits); ``float`` -> ``03`` + IEEE-754
    little-endian double; ``str`` -> ``04`` + UTF-8; ``bytes`` -> ``05``
    + the bytes.  A tuple folds its items' hashes, in order, through the
    same xor-multiply step, each 64-bit hash taken as one unit.  NumPy
    integer / floating / str scalars hash as the Python value they
    convert to.

    Which reducer a key lands in is part of the engine's bitwise
    contract, and a job routes the same few keys again and again, so
    hashes of keys whose type is *exactly* ``int`` or ``str`` are kept
    in a per-process memo (tuples compose from memoised items).  Nothing
    else is cached, on purpose: ``1 == 1.0 == True`` and ``0.0 == -0.0``
    are one dict key each but hash differently here, and a memo keyed by
    value would let whichever twin arrived first decide the other's
    reducer.  The memo holds at most ``_MEMO_MAX`` entries and is
    cleared when full; an entry is a pure function of its key, so a
    racing thread can at worst recompute one, and every process fills
    its own copy with the same values.
    """
    t = type(key)
    if t is not int and t is not str:
        return _hash_by_isinstance(key)
    h = _MEMO.get(key)
    if h is None:
        h = _hash_by_isinstance(key)  # raises before anything is stored
        if len(_MEMO) >= _MEMO_MAX:
            _MEMO.clear()
        _MEMO[key] = h
    return h


def _hash_by_isinstance(key: Hashable) -> int:
    """The hash rules in full — every :func:`stable_hash` the memo does
    not answer."""
    if key is None:
        return _fnv1a(b"\x00none")
    if isinstance(key, bool):
        return _fnv1a(b"\x01" + bytes([key]))
    if isinstance(key, int):
        return _fnv1a(b"\x02" + key.to_bytes(16, "little", signed=True))
    if isinstance(key, float):
        return _fnv1a(b"\x03" + struct.pack("<d", key))
    if isinstance(key, str):
        if isinstance(key, np.str_):
            # A str subclass whose Python value drops trailing NULs:
            # str(np.str_("a\x00")) == "a", as an array element would be.
            key = str(key)
        return _fnv1a(b"\x04" + key.encode("utf-8"))
    if isinstance(key, bytes):
        return _fnv1a(b"\x05" + key)
    if isinstance(key, tuple):
        acc = _FNV_OFFSET
        for item in key:
            acc ^= stable_hash(item)
            acc = (acc * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
        return acc
    # numpy scalars quack like python numbers
    if isinstance(key, np.integer):
        return stable_hash(int(key))
    if isinstance(key, np.floating):
        return stable_hash(float(key))
    raise TypeError(f"no stable hash for key of type {type(key).__name__}")


class HashPartitioner:
    """Hadoop-default partitioner: ``stable_hash(key) mod num_reducers``."""

    def __call__(self, key: Any, num_reducers: int) -> int:
        if num_reducers <= 0:
            raise ValueError("num_reducers must be > 0")
        return stable_hash(key) % num_reducers


class RangePartitioner:
    """Partition orderable keys by split points (for sorted output).

    Parameters
    ----------
    split_points:
        Sorted sequence of ``num_reducers - 1`` boundaries; a key goes to
        the first range whose boundary exceeds it.
    """

    def __init__(self, split_points: "list[Any]") -> None:
        self.split_points = list(split_points)
        for a, b in zip(self.split_points, self.split_points[1:]):
            if not a <= b:
                raise ValueError("split_points must be sorted")
        self._num_reducers = len(self.split_points) + 1

    def __call__(self, key: Any, num_reducers: int) -> int:
        # Checked per record: the only place a mis-sized job is caught.
        if num_reducers != self._num_reducers:
            raise ValueError(
                f"RangePartitioner with {len(self.split_points)} split points "
                f"requires {self._num_reducers} reducers, got {num_reducers}"
            )
        return bisect.bisect_right(self.split_points, key)
