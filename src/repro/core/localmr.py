"""The local MapReduce loop — Figure 1 of the paper.

::

    gmap(xs : X list) {
        while(no-local-convergence-intimated) {
            for each element x in xs { lmap(x); }   // emits lkey, lval
            lreduce();    // operates on the output of lmap functions
        }
        for each value in lreduce-output { EmitIntermediate(key, value); }
    }

:func:`run_local_mapreduce` executes that loop over the in-memory
hashtable: every iteration applies ``lmap`` to each entry, groups the
EmitLocalIntermediate pairs by key, applies ``lreduce`` per group, and
folds the EmitLocal pairs back into the hashtable (entries not re-emitted
persist, so static structure such as adjacency lists survives the loop).
The local synchronization between lmap and lreduce is a plain in-memory
barrier — "the local synchronization does not incur any inter-host
communication delays" (§V-B.2).

That per-record loop is the oracle and the teaching API.
:func:`run_local_block` is the same loop on arrays, for specs that
declare a block-level local step (``spec.local_agg``) — **bitwise** the
per-record loop: same tables, same iteration counts, same
``per_iter_ops``.  It is the one array loop: the engine's gmap runs it
on the columns ``spec.local_columns`` cuts from the gmap input, and the
simulator's ``local_solve`` of every node-partitioned app (PageRank,
SSSP, components, Jacobi) on columns cut from the flat state; the one
hook it calls, ``local_step``, is documented on
``repro.apps._nodeblock.NodeBlockSpec``.
:class:`per_record` is the view that reaches the oracle for such a
spec, and the one place its hashtable records are still built;
``docs/local_loop.md`` states the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.api import AsyncMapReduceSpec
from repro.core.emitter import LocalMapContext, LocalReduceContext
from repro.engine.columnar import resolve_agg

__all__ = ["LocalRunResult", "agg_identity", "run_local_mapreduce",
           "run_local_block", "scatter_fold", "per_record"]


def agg_identity(agg: str, dtype: np.dtype) -> Any:
    """What ``lreduce`` starts a key's fold from (a row no record reaches
    keeps it): ``contrib = 0.0`` / ``best = inf`` in the per-record code,
    and for an integer column the dtype's own extreme, so it stays
    integer."""
    if agg == "sum":
        return 0
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        return info.max if agg == "min" else info.min
    return np.inf if agg == "min" else -np.inf


@dataclass
class LocalRunResult:
    """Outcome of one gmap's local MapReduce loop."""

    #: Local state at local convergence: the hashtable — or, from
    #: :func:`run_local_block`, its mutable columns as a tuple of
    #: ``(n,)`` float64 arrays in row order.
    table: Any
    #: Number of local iterations executed.
    local_iters: int
    #: Operations per local iteration (hashtable scans + emissions).
    per_iter_ops: list
    #: True when the spec's local criterion stopped the loop (False when
    #: the iteration cap did).
    converged: bool

    @property
    def total_ops(self) -> float:
        return float(sum(self.per_iter_ops))


def run_local_mapreduce(
    spec: AsyncMapReduceSpec,
    xs: "list[tuple[Any, Any]]",
    *,
    max_local_iters: int,
) -> LocalRunResult:
    """Execute Figure 1's local loop for one partition input ``xs``.

    Parameters
    ----------
    spec:
        The application spec providing ``lmap``/``lreduce`` and the local
        termination function.
    xs:
        The gmap's key-value input list; duplicate keys are rejected
        because the hashtable (dict) semantics of §V-A require unique
        keys.
    max_local_iters:
        Iteration cap; 1 reproduces the general (baseline) behaviour.
    """
    if max_local_iters < 1:
        raise ValueError("max_local_iters must be >= 1")
    table: dict = {}
    for k, v in xs:
        if k in table:
            raise ValueError(f"duplicate key in gmap input: {k!r}")
        table[k] = v

    per_iter_ops: list[float] = []
    converged = False
    iters = 0
    while iters < max_local_iters:
        mctx = LocalMapContext()
        for k, v in table.items():
            spec.lmap(k, v, mctx)
        groups: dict[Any, list] = {}
        for lk, lv in mctx.intermediate:
            groups.setdefault(lk, []).append(lv)
        rctx = LocalReduceContext()
        for lk, lvs in groups.items():
            spec.lreduce(lk, lvs, rctx)
        new_table = dict(table)
        for k, v in rctx.local_output:
            new_table[k] = v
        # One scan of the table + all emissions, as the engine would count.
        per_iter_ops.append(float(len(table)) + mctx.ops + rctx.ops)
        iters += 1
        if spec.local_converged(table, new_table):
            table = new_table
            converged = True
            break
        table = new_table
    return LocalRunResult(table=table, local_iters=iters,
                          per_iter_ops=per_iter_ops, converged=converged)


def run_local_block(
    spec: AsyncMapReduceSpec,
    part_id: int,
    cols: "tuple[np.ndarray, ...]",
    *,
    max_local_iters: int,
) -> LocalRunResult:
    """:func:`run_local_mapreduce` on arrays, for a spec declaring
    ``local_agg``: ``cols`` are the partition's columns (one ``(n,)``
    array each, row ``i`` = the partition's ``i``-th key), ``cols[0]``
    the one the loop rewrites and the rest frozen for the whole solve;
    ``result.table`` is ``(x, *cols[1:])``, the frozen columns the same
    objects that came in.

    ``step = spec.local_step(part_id, cols)`` is built once per solve;
    one iteration is ``x, records, converged = step(x)``: lmap, the
    local shuffle, ``lreduce`` and the local termination test over every
    row at once.  The fold inside it is *bitwise* the per-record fold
    (``contrib = 0.0; contrib += payload`` in emission order): the sum
    apps do it as one sequential CSR mat-vec, the min apps as a gather
    and :func:`scatter_fold`; ``docs/local_loop.md`` says why both are
    bitwise and ``reduceat`` is not.

    ``per_iter_ops`` is what the per-record loop counts: a table scan
    (``n``), lmap's emissions (``n`` carried ``rec`` records plus the
    step's ``records``) and one ``EmitLocal`` per entry (``n``).
    """
    if max_local_iters < 1:
        raise ValueError("max_local_iters must be >= 1")
    step = spec.local_step(part_id, cols)
    x = cols[0]
    n = len(x)
    per_iter_ops: list[float] = []
    converged = False
    while len(per_iter_ops) < max_local_iters and not converged:
        x, records, converged = step(x)
        per_iter_ops.append(float(3 * n + records))
    return LocalRunResult(table=(x, *cols[1:]), local_iters=len(per_iter_ops),
                          per_iter_ops=per_iter_ops, converged=converged)


def scatter_fold(agg: str, col: np.ndarray
                 ) -> "Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, int]]":
    """A min/max app's fold, built once per solve for columns shaped and
    typed like ``col`` (float64, or int64 for component labels):
    ``fold(rows, values)`` is ``ufunc.at`` of ``agg`` of the
    contribution records ``(rows, values)`` into a fresh ``acc`` that
    starts from the aggregator's identity, and returns ``(acc,
    len(rows))``.  ``ufunc.at`` is unbuffered, so repeated rows all
    land, one by one in array order.  The identity row and the ufunc
    are looked up once, not per iteration."""
    identity = np.full(len(col), agg_identity(agg, col.dtype), dtype=col.dtype)
    at = resolve_agg(agg).at

    def fold(rows: np.ndarray, values: np.ndarray) -> "tuple[np.ndarray, int]":
        acc = identity.copy()
        at(acc, rows, values)
        return acc, len(rows)

    return fold


class per_record:
    """View of a spec that hides its block declaration, so the engine
    (or a test) runs the per-record oracle loop on it."""

    local_agg = None

    def __init__(self, spec: AsyncMapReduceSpec) -> None:
        self._spec = spec

    def partition_input(self, part_id: int, state: Any) -> list:
        """The spec's gmap input as the hashtable records
        :func:`run_local_mapreduce` reads."""
        spec = self._spec
        return spec.table_records(part_id, spec.partition_input(part_id, state))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._spec, name)

    def __reduce__(self) -> tuple:  # __getattr__ would recurse unpickling
        return per_record, (self._spec,)
