"""Byte sizes of the records and state that pay the DFS toll.

Iterative MapReduce pays a DFS round trip between iterations: "the output
from a reduction is written to the (distributed) file system and must be
accessed from the DFS by the next set of maps.  This involves significant
overhead." (§VIII).  The simulator prices that toll from byte counts
alone (:meth:`~repro.cluster.costmodel.CostModel.dfs_write_seconds` /
``dfs_read_seconds``, replication included); :func:`estimate_nbytes`
supplies those counts for Python objects.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

import numpy as np

__all__ = ["estimate_nbytes"]


#: Exact-type sizes of the fixed-width builtin scalars — the first lookup
#: of :func:`estimate_nbytes`.  Subclasses are absent on purpose: they
#: miss the table and fall through to :func:`_estimate_by_isinstance`.
_FIXED_NBYTES = {int: 8, float: 8, bool: 8, type(None): 1}
#: Lists at least this long are tried as a uniform column first
#: (:func:`_uniform_column_nbytes`); below it the fixed cost of the
#: column passes exceeds the per-item loop's.
_COLUMN_MIN = 32


def estimate_nbytes(obj: Any) -> int:
    """Estimate the serialised size of ``obj`` in bytes.

    Sizes mirror a compact binary wire format and only need to be
    *proportional* for the cost model to behave — but they feed
    ``sim_seconds``, so every entry is pinned, surprising ones included:

    ==================================  =================================
    ``None``                            1
    ``int`` / ``float`` / ``bool``      8 (``True`` is 8, any int width)
    ``np.integer`` / ``np.floating``    8
    ``str`` (and ``np.str_``)           UTF-8 length
    ``bytes``                           ``len``
    ``np.ndarray`` (0-d, subclasses)    ``nbytes``
    ``dict`` (and subclasses)           keys + values, recursively
    ``list``/``tuple``/``set``/         elements, recursively (so a
    ``frozenset`` (and subclasses)      namedtuple is its fields)
    anything else                       32 — ``np.bool_``, ``bytearray``,
                                        ``complex``, arbitrary objects
    ==================================  =================================

    Dispatch is on the *exact* type — one dict lookup for a scalar, a
    flat loop with the same lookup inlined for a ``tuple``/``list`` of
    scalars and strings — because the engine sizes every record of
    every object-path task, one call per task column: a map task's
    values (``("rank", 0.25)`` each) and a reduce task's output pairs
    (``(node, (rank, ext))``) are each one list.  A list or tuple is the
    sum of its elements' sizes, so one call on a column is the sum of
    one call per record, and a long list whose items share one exact
    type is sized a field at a time (:func:`_uniform_column_nbytes`).
    Any other element is sized by a recursive call, and whatever is not
    exactly one of those builtins (a subclass, a NumPy value, a set,
    ``bytes``) takes :func:`_estimate_by_isinstance`, the same rules
    spelled as the ``isinstance`` chain the table abbreviates.
    """
    fixed = _FIXED_NBYTES.get
    t = type(obj)
    n = fixed(t)
    if n is not None:
        return n
    if t is tuple or t is list:
        if t is list and len(obj) >= _COLUMN_MIN:
            n = _uniform_column_nbytes(obj)
            if n is not None:
                return n
        total = 0
        for x in obj:
            tx = type(x)
            n = fixed(tx)
            if n is not None:
                total += n
            elif tx is str:
                total += len(x) if x.isascii() else len(x.encode("utf-8"))
            else:
                total += estimate_nbytes(x)
        return total
    if t is str:
        return len(obj) if obj.isascii() else len(obj.encode("utf-8"))
    if t is dict:
        total = 0
        for k, v in obj.items():
            total += estimate_nbytes(k) + estimate_nbytes(v)
        return total
    return _estimate_by_isinstance(obj)


def _uniform_column_nbytes(col: list) -> "int | None":
    """The size of ``col`` when its items share one exact type, in a few
    passes that run in C; None when they do not.

    Equal to the per-item sum by the same rules: ``n`` fixed-width
    scalars of one type are ``n`` times its size; ``n`` strings are
    their concatenation (whose UTF-8 length is the sum of theirs, and
    which refuses to encode exactly when one of them does); ``n``
    tuples of one width are their fields, each field's ``n`` values
    one column, sized by :func:`estimate_nbytes`.
    """
    kinds = set(map(type, col))
    if len(kinds) != 1:
        return None
    (kind,) = kinds
    n = _FIXED_NBYTES.get(kind)
    if n is not None:
        return n * len(col)
    if kind is str:
        joined = "".join(col)
        return len(joined) if joined.isascii() else len(joined.encode("utf-8"))
    if kind is not tuple or len(set(map(len, col))) != 1:
        return None
    total = 0
    for i in range(len(col[0])):
        total += estimate_nbytes(list(map(itemgetter(i), col)))
    return total


def _estimate_by_isinstance(obj: Any) -> int:
    """The size rules in full — the miss path of :func:`estimate_nbytes`
    (subclasses, NumPy values, sets, bytes, the 32-byte fallback)."""
    if obj is None:
        return 1
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return 8
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, bytes):
        return len(obj)
    if isinstance(obj, dict):
        return sum(estimate_nbytes(k) + estimate_nbytes(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(estimate_nbytes(x) for x in obj)
    # Fallback: flat object of a few machine words.
    return 32

