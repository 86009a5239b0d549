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

from typing import Any

import numpy as np

__all__ = ["estimate_nbytes"]


#: Exact-type sizes of the fixed-width builtin scalars — the first lookup
#: of :func:`estimate_nbytes`.  Subclasses are absent on purpose: they
#: miss the table and fall through to :func:`_estimate_by_isinstance`.
_FIXED_NBYTES = {int: 8, float: 8, bool: 8, type(None): 1}


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
    scalars and strings (the shape of a shuffle record) — because the
    engine sizes every record of every object-path task.  Anything that
    is not exactly one of those builtins (a subclass, a NumPy value, a
    set, ``bytes``) takes :func:`_estimate_by_isinstance`, the same
    rules spelled as the ``isinstance`` chain the table abbreviates.
    """
    fixed = _FIXED_NBYTES.get
    t = type(obj)
    n = fixed(t)
    if n is not None:
        return n
    if t is tuple or t is list:
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

