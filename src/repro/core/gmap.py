"""Construction of ``gmap``/``greduce`` engine functions from a spec.

§IV: "A global map takes a partition as input, and involves invocation of
local map and local reduce functions iteratively on the partition."  The
factories here wrap an :class:`~repro.core.api.AsyncMapReduceSpec` into
the plain ``map_fn``/``reduce_fn`` callables the MapReduce engine
executes, so one *global iteration* of the two-level scheme is exactly
one engine job.  Both wrappers are picklable (plain classes holding the
spec) so the process-pool executor can run gmaps in parallel.
"""

from __future__ import annotations

from typing import Any

from repro.core.api import AsyncMapReduceSpec
from repro.core.localmr import run_local_block, run_local_mapreduce

__all__ = ["GmapFunction", "GreduceFunction", "local_iter_counter"]


def local_iter_counter(part_id: Any) -> str:
    """Per-partition engine counter for local iterations inside one gmap.

    It lets the driver record a per-partition history tuple that is
    shape-compatible with the vectorised block path's records.
    """
    return f"core.local.iterations.part{part_id}"


class GmapFunction:
    """Engine ``map_fn`` running Figure 1's local loop over a partition.

    The engine hands it ``(part_id, xs)`` records; it runs the local
    MapReduce to local convergence (or to 1 iteration for the general
    baseline) and emits the spec's boundary/output pairs for the global
    reduce — as one typed batch (``ctx.emit_block``) when the columnar
    fast path is on, or pair-at-a-time otherwise.

    A spec declaring a block-level local step (``local_agg``, read by
    attribute like ``supports_columnar`` so duck-typed specs work) gets
    the array loop on either shuffle path, and emits from its final
    columns on either (``gmap_emit_block`` / ``gmap_emit_pairs``): same
    counters, same records, and no per-node table built.  Those hooks
    and ``local_columns`` are the engine view of a node-partitioned app,
    written once in ``repro.apps._nodeblock.NodeRowState``.
    """

    def __init__(self, spec: AsyncMapReduceSpec, max_local_iters: int, *,
                 columnar: bool = False) -> None:
        if max_local_iters < 1:
            raise ValueError("max_local_iters must be >= 1")
        if columnar and not getattr(spec, "supports_columnar", False):
            raise ValueError(
                f"{type(spec).__name__} does not support the columnar path")
        self.spec = spec
        self.max_local_iters = max_local_iters
        self.columnar = columnar

    def __call__(self, part_id: Any, xs: "list[tuple[Any, Any]]", ctx: Any) -> None:
        spec = self.spec
        block = getattr(spec, "local_agg", None) is not None
        if block:
            result = run_local_block(spec, part_id,
                                     spec.local_columns(part_id, xs),
                                     max_local_iters=self.max_local_iters)
        else:
            result = run_local_mapreduce(spec, xs,
                                         max_local_iters=self.max_local_iters)
        ctx.incr(local_iter_counter(part_id), result.local_iters)
        ctx.add_ops(result.total_ops)
        if self.columnar:
            keys, values = (spec.gmap_emit_block(result.table, part_id) if block
                            else spec.gmap_emit_columnar(result.table, part_id))
            ctx.emit_block(keys, values)
            return
        ctx.emit_pairs(spec.gmap_emit_pairs(result.table, part_id) if block
                       else spec.gmap_emit(result.table, part_id))


class GreduceFunction:
    """Engine ``reduce_fn`` delegating to the spec's ``greduce``.

    ``greduce`` writes straight into the reduce task's context: its
    ``emit`` appends the pair and counts one op, its ``add_ops`` lands
    in the task's running total in call order, and this wrapper then
    adds one more op per pair the key emitted, the cost of handing the
    global reduce's output on.
    """

    def __init__(self, spec: AsyncMapReduceSpec) -> None:
        self.spec = spec

    def __call__(self, key: Any, values: list, ctx: Any) -> None:
        out = ctx.output
        before = len(out)
        self.spec.greduce(key, values, ctx)
        ctx.add_ops(float(len(out) - before))
