"""Task-level execution: contexts, attempts, and the task runners.

A *task* is the unit of scheduling and of failure: one map task per input
split, one reduce task per reduce partition.  Task runners are plain
picklable functions so the process-pool executor can ship them to
workers; they return a :class:`TaskResult` carrying the emitted data,
counters and the operation count the cost model charges for.

Two data representations flow through the runners:

* **Object path** — the classic one-pair-at-a-time flow (``ctx.emit``),
  any hashable key / any value.  The reference semantics and the oracle.
  Its bookkeeping runs over whole columns: the map task's tail routes
  the task's keys at once (one vectorised hash for int64 keys under the
  default partitioner, else ``partitioner(key, R)`` per key), sizes
  them (:func:`~repro.cluster.dfs.estimate_nbytes`, into
  ``TaskResult.nbytes``) and buckets the tuples the map emitted by one
  stable grouping; the reduce task counts groups and records in locals
  and writes the counters once, then sizes its output list in one
  ``estimate_nbytes`` call.  ``docs/object_path.md`` is the accounting
  contract.
* **Columnar path** — map functions emit typed array batches
  (``ctx.emit_block``); routing, map-side combining, grouping and byte
  accounting all run as whole-array NumPy ops (see
  :mod:`repro.engine.columnar`).  ``JobConf.columnar=False`` forces a
  columnar-emitting job back through the object path (materialised
  pairs), which is how the equivalence tests cross-check the two.

Both runners, like :meth:`MapReduceRuntime.run
<repro.engine.runtime.MapReduceRuntime.run>`, hold the cyclic garbage
collector off while they run (:func:`collector_held`).

Failure injection happens *inside* the runner (so it behaves identically
under every executor) via a :class:`~repro.engine.faults.FaultPlan`
consulted with the task's id and attempt number.  Recovery is Hadoop's
deterministic replay: the runtime simply re-executes the same runner with
the same inputs and a bumped attempt number.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.cluster.dfs import estimate_nbytes
from repro.engine.columnar import (
    ColumnarBlock,
    ColumnarGroups,
    _hash_routed,
    as_columnar_reduce,
    hash_buckets,
    object_combiner,
    object_reducer,
    partition_each,
    route_columnar,
    route_combine_columnar,
    stable_key_order,
)
from repro.engine.counters import (
    COMBINE_INPUT_RECORDS,
    COMBINE_OUTPUT_RECORDS,
    Counters,
    MAP_INPUT_RECORDS,
    MAP_OPS,
    MAP_OUTPUT_RECORDS,
    REDUCE_INPUT_GROUPS,
    REDUCE_INPUT_RECORDS,
    REDUCE_OPS,
    REDUCE_OUTPUT_RECORDS,
)
from repro.engine.faults import FaultPlan
from repro.engine.partitioner import HashPartitioner
from repro.engine.shm import (
    ShmGroupsRef,
    ShmPickleRef,
    ShmSplitRef,
    export_block,
)
from repro.engine.shuffle import ColumnarRun

__all__ = ["TaskContext", "TaskResult", "run_map_task", "run_reduce_task",
           "keep_plans", "kept_plans", "collector_held"]

#: Default combine crossover: batches below this many records skip the
#: map-side combiner entirely.  For tiny batches the grouping sort costs
#: more than the shuffle bytes it saves; the skip rule is a pure
#: function of (named combiner, record count), applied identically on
#: the columnar and object paths so their outputs stay byte-identical.
COMBINE_CROSSOVER = 64


def _skip_combine(combine_fn: Any, n_records: int, crossover: int) -> bool:
    """True when a *named* combiner should be skipped for a tiny batch.

    Callable combiners are never skipped: the engine cannot know they
    are pure aggregations, so eliding them could change output.
    """
    return isinstance(combine_fn, str) and n_records < crossover


@contextlib.contextmanager
def collector_held() -> "Iterator[None]":
    """Hold Python's cyclic garbage collector off for the span of the
    block (or, as ``@collector_held()``, of each call).

    A job allocates a container per shuffle record and frees none of
    them through a cycle, so every collection inside it is a scan of
    live tuples that frees nothing; reference counting still frees
    everything that is not in a cycle, and a cycle made inside is freed
    by the first collection after.  The collector is re-enabled on every
    exit path, and only if it was enabled on entry: a nested hold (a
    task inside a run, a job inside a task) leaves it to the outermost
    one, a caller that had disabled it finds it disabled, and of two
    threads holding at once the first to leave turns it back on.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        # Only a hold that saw it on switches it at all: a thread that
        # disabled it after reading "off" could outlast the holder that
        # turned it back on, and leave it off for good.
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


#: Plans kept across runs, one per task slot (``("map", i)`` or
#: ``("reduce", r)``): slot -> (tag, copy of the keys, plan).  Only a
#: process-pool worker fills it (see :func:`keep_plans`).
_PLANS: "dict[tuple[str, int], tuple[Any, np.ndarray, Any]]" = {}
#: The ``(maps, reducers)`` shape of the job the kept plans belong to.
_PLANS_SHAPE: "tuple[int, int] | None" = None
#: Set in pool workers only: serial and thread tasks run in the driver,
#: whose peak memory a kept plan would raise.
_KEEP_PLANS = False
_INT32 = np.iinfo(np.int32)


def keep_plans() -> None:
    """Pool initializer: this process keeps each task slot's last plan.

    An iterative job re-runs the same map over the same partitions, so
    a slot usually sees the keys it saw last round; a kept plan turns
    the map tail's and the reducer's sorts into one exact comparison.
    The plans die with the worker.
    """
    global _KEEP_PLANS
    _KEEP_PLANS = True


def kept_plans() -> int:
    """How many plans this process keeps (submit it to a pool to ask
    a worker)."""
    return len(_PLANS)


def _key_copy(keys: np.ndarray) -> np.ndarray:
    """A private copy of ``keys`` for the exact check, int32 if they fit."""
    if keys.size and _INT32.min <= keys.min() and keys.max() <= _INT32.max:
        return keys.astype(np.int32)
    return keys.copy()


def _kept_plan(slot: "tuple[str, int]", keys: np.ndarray, tag: Any,
               build: "Callable[[], Any]") -> Any:
    """The slot's kept plan if it was built from exactly ``keys`` (and
    ``tag``), else ``build()``, which replaces it."""
    kept = _PLANS.get(slot)
    if kept is not None and kept[0] == tag and np.array_equal(kept[1], keys):
        return kept[2]
    plan = build()
    _PLANS[slot] = (tag, _key_copy(keys), plan)
    return plan


def _plan_keeper(slot: "tuple[str, int]",
                 job_shape: "tuple[int, int] | None") -> "Callable | None":
    """The plan lookup ``keep(keys, tag, build)`` of one task slot, or
    None outside a plan-keeping worker.

    A task of another job shape empties the memo first, so it never
    holds more than one plan per slot of the job it last ran.
    """
    global _PLANS_SHAPE
    if not _KEEP_PLANS or job_shape is None:
        return None
    if job_shape != _PLANS_SHAPE:
        _PLANS.clear()
        _PLANS_SHAPE = job_shape
    return functools.partial(_kept_plan, slot)


class TaskContext:
    """The ``ctx`` object handed to user map/reduce/combine functions.

    Provides ``emit`` for output, counter increments, and an operation
    counter that feeds the cost model.  One context lives for the whole
    task; per-record bookkeeping is done by the runner.
    """

    __slots__ = ("task_id", "attempt", "counters", "_out", "_blocks", "_ops")

    def __init__(self, task_id: str, attempt: int) -> None:
        self.task_id = task_id
        self.attempt = attempt
        self.counters = Counters()
        self._out: list[tuple[Any, Any]] = []
        self._blocks: list[ColumnarBlock] = []
        self._ops: float = 0.0

    def emit(self, key: Any, value: Any) -> None:
        """Emit one output pair (the paper's ``Emit``/``EmitIntermediate``)."""
        self._out.append((key, value))
        self._ops += 1.0

    def emit_pairs(self, pairs: "Iterable[tuple[Any, Any]]") -> None:
        """Emit ready-made ``(key, value)`` tuples, in order: the records
        and the operation count of one :meth:`emit` per pair, without
        building each tuple a second time."""
        out = self._out
        before = len(out)
        out.extend(pairs)
        self._ops += float(len(out) - before)

    def emit_block(self, keys: Any, values: Any,
                   dictionary: Any = None) -> None:
        """Emit a typed batch of records in one call (the columnar path).

        ``keys`` is an int64-coercible array — or an array/sequence of
        strings, which are dictionary-encoded on entry (pass a
        pre-built :class:`~repro.engine.columnar.StringDictionary` as
        ``dictionary`` to reuse an interned vocabulary).  ``values`` is
        a float64 array of shape ``(n,)`` or ``(n, w)``.  Counts one
        operation per record, exactly like ``len(keys)`` individual
        :meth:`emit` calls.
        """
        block = ColumnarBlock(keys, values, dictionary)
        self._blocks.append(block)
        self._ops += float(len(block))

    def incr(self, name: str, amount: int = 1) -> None:
        """Increment an application counter."""
        self.counters.incr(name, amount)

    def add_ops(self, n: float) -> None:
        """Account ``n`` extra operations toward this task's compute cost.

        Vectorised map functions (which process many records per call)
        use this so the cost model still sees the true operation count.
        """
        if n < 0:
            raise ValueError("ops must be >= 0")
        self._ops += n

    @property
    def output(self) -> list[tuple[Any, Any]]:
        return self._out

    @property
    def columnar_output(self) -> "list[ColumnarBlock]":
        """Batches emitted via :meth:`emit_block`, in emission order."""
        return self._blocks

    @property
    def ops(self) -> float:
        return self._ops


@dataclass
class TaskResult:
    """What a completed task attempt hands back to the runtime."""

    task_id: str
    attempt: int
    #: For map tasks: buckets[r] = (k, v) list — or a
    #: :class:`~repro.engine.columnar.ColumnarBlock` — for reducer r.
    #: For reduce tasks: the emitted output pairs (or output block).
    data: Any
    counters: Counters = field(default_factory=Counters)
    ops: float = 0.0
    #: Estimated bytes this task's data occupies on the wire — shuffle
    #: bytes for map tasks, output bytes for reduce tasks.  Measured
    #: worker-side (dtype itemsize math on the columnar path, an
    #: ``estimate_nbytes`` scan on the object path) so the driver never
    #: re-scans the same data.
    nbytes: int = 0


def _stall(fault_plan: FaultPlan, phase: str, task_index: int,
           attempt: int) -> None:
    """Sleep out the plan's wall-clock stall for this attempt (the
    heterogeneity speculative re-execution races against)."""
    delay = fault_plan.stall_seconds_for(phase, task_index, attempt)
    if delay > 0.0:
        time.sleep(delay)


@collector_held()
def run_map_task(
    task_index: int,
    attempt: int,
    split: "list[tuple[Any, Any]] | ShmSplitRef",
    map_fn: Any,
    combine_fn: Any,
    partitioner: Any,
    num_reducers: int,
    fault_plan: "FaultPlan | None" = None,
    columnar: bool = True,
    combine_crossover: int = COMBINE_CROSSOVER,
    shm_threshold: "int | None" = None,
    shm_prefix: "str | None" = None,
    job_shape: "tuple[int, int] | None" = None,
) -> TaskResult:
    """Execute one map task attempt over its input split.

    Applies ``map_fn`` to every record, optionally combines, then
    partitions the intermediate pairs into per-reducer buckets.  A map
    function that emits columnar batches takes the vectorised route —
    fused combine + hash routing, dtype-math byte measurement — unless
    ``columnar`` is False, in which case the batches are materialised
    into pairs and run through the object path (the oracle used by the
    equivalence tests).

    A *named* combiner is skipped outright for batches below
    ``combine_crossover`` records — on both paths, so output stays
    byte-identical.  With ``shm_threshold`` set (process executors),
    routed buckets of at least that many bytes are parked in shared
    memory under ``shm_prefix`` and returned as
    :class:`~repro.engine.shm.ShmBlockRef` handles instead of being
    pickled back to the driver.  ``split`` may likewise arrive as the
    :class:`~repro.engine.shm.ShmSplitRef` of a split the driver parked.

    ``job_shape`` is the job's ``(maps, reducers)``: a pool worker keeps
    the combine+route plan of slot ``("map", task_index)`` for it (see
    :func:`keep_plans`); without it nothing is kept.
    """
    task_id = f"m{task_index}"
    keep = _plan_keeper(("map", task_index), job_shape)
    if fault_plan is not None:
        _stall(fault_plan, "map", task_index, attempt)
        fault_plan.maybe_fail("map", task_index, attempt)
    if isinstance(map_fn, ShmPickleRef):
        map_fn = map_fn.load()  # parked once per run, cached per worker
    if isinstance(split, ShmSplitRef):
        split = split.load()  # this task's stream, over shared buffers
    ctx = TaskContext(task_id, attempt)
    for key, value in split:
        ctx.counters.incr(MAP_INPUT_RECORDS)
        ctx.add_ops(1.0)
        map_fn(key, value, ctx)

    pairs = ctx.output
    if ctx.columnar_output:
        if pairs:
            raise RuntimeError(
                f"map task {task_id} mixed emit() and emit_block() output; "
                "a task must use one representation"
            )
        block = ColumnarBlock.concat(ctx.columnar_output)
        if columnar:
            return _finish_columnar_map(
                task_id, attempt, ctx, block, combine_fn, partitioner,
                num_reducers, combine_crossover=combine_crossover,
                shm_threshold=shm_threshold,
                shm_prefix=f"{shm_prefix}m{task_index}a{attempt}"
                if shm_prefix is not None else None,
                keep=keep)
        pairs = block.to_pairs()

    ctx.counters.incr(MAP_OUTPUT_RECORDS, len(pairs))
    if combine_fn is not None and not _skip_combine(
            combine_fn, len(pairs), combine_crossover):
        pairs = _apply_combiner(pairs, object_combiner(combine_fn), ctx)

    buckets, nbytes = _route_pairs(pairs, partitioner, num_reducers)
    ctx.counters.incr(MAP_OPS, int(ctx.ops))
    return TaskResult(task_id=task_id, attempt=attempt, data=buckets,
                      counters=ctx.counters, ops=ctx.ops, nbytes=nbytes)


def _route_pairs(pairs: "list[tuple[Any, Any]]", partitioner: Any,
                 num_reducers: int) -> "tuple[list[list[tuple[Any, Any]]], int]":
    """Route, size and bucket an object map task's pairs in bulk.

    The reducer ids come from the key column at once: one
    :func:`~repro.engine.columnar.hash_buckets` sweep under the default
    hash routing when every key is exactly ``int`` within int64 (the
    same ``stable_hash(k) % R``), else one ``partitioner(k, R)`` call
    per key, in order, each checked.  One stable grouping by id then
    fills bucket ``r`` with the emitted tuples themselves, in emission
    order.  ``nbytes`` is ``estimate_nbytes`` of the key column plus
    that of the value column, which equals ``shuffle_bytes([buckets])``.  A
    task without pairs calls no partitioner.
    """
    if not pairs:
        return [[] for _ in range(num_reducers)], 0
    keys = [k for k, _ in pairs]
    values = [v for _, v in pairs]
    ids = None
    if _hash_routed(partitioner) and set(map(type, keys)) == {int}:
        try:
            column = np.array(keys, dtype=np.int64)
        except OverflowError:  # a key beyond int64 takes stable_hash
            pass
        else:
            ids = hash_buckets(column, num_reducers)
    if ids is None:
        if partitioner is None:
            partitioner = HashPartitioner()
        ids = partition_each(keys, partitioner, num_reducers)
    nbytes = estimate_nbytes(keys) + estimate_nbytes(values)
    order = stable_key_order(ids).tolist()
    ordered = [pairs[i] for i in order]
    buckets = []
    lo = 0
    for hi in np.cumsum(np.bincount(ids, minlength=num_reducers)).tolist():
        buckets.append(ordered[lo:hi])
        lo = hi
    return buckets, nbytes


def _finish_columnar_map(task_id: str, attempt: int, ctx: TaskContext,
                         block: ColumnarBlock, combine_fn: Any,
                         partitioner: Any, num_reducers: int, *,
                         combine_crossover: int = COMBINE_CROSSOVER,
                         shm_threshold: "int | None" = None,
                         shm_prefix: "str | None" = None,
                         keep: "Callable | None" = None) -> TaskResult:
    """Vectorised tail of a columnar map task: fused combine+route
    (through the slot's plan lookup ``keep``, if any), measure."""
    ctx.counters.incr(MAP_OUTPUT_RECORDS, len(block))
    if combine_fn is not None and not isinstance(combine_fn, str):
        raise TypeError(
            "columnar map output requires a named combiner "
            f"('sum'/'min'/'max'), got {type(combine_fn).__name__}"
        )
    if combine_fn is not None and not _skip_combine(
            combine_fn, len(block), combine_crossover):
        n_in = len(block)
        buckets = route_combine_columnar(block, num_reducers, combine_fn,
                                         partitioner, keep)
        n_out = sum(len(b) for b in buckets)
        ctx.counters.incr(COMBINE_INPUT_RECORDS, n_in)
        ctx.counters.incr(COMBINE_OUTPUT_RECORDS, n_out)
        # Mirrors the object combiner's cost: one op per input record
        # (the group scans) plus one per emitted record.
        ctx.add_ops(float(n_in + n_out))
    else:
        buckets = route_columnar(block, num_reducers, partitioner)
    nbytes = sum(b.nbytes for b in buckets)
    ctx.counters.incr(MAP_OPS, int(ctx.ops))
    data: list = buckets
    if shm_threshold is not None and shm_prefix is not None:
        data = [export_block(b, f"{shm_prefix}p{r}", shm_threshold)
                for r, b in enumerate(buckets)]
    return TaskResult(task_id=task_id, attempt=attempt, data=data,
                      counters=ctx.counters, ops=ctx.ops,
                      nbytes=nbytes)


def _apply_combiner(pairs: "list[tuple[Any, Any]]", combine_fn: Any,
                    outer_ctx: TaskContext) -> "list[tuple[Any, Any]]":
    """Group this task's pairs by key and run the combiner per group."""
    groups: dict[Any, list] = {}
    for k, v in pairs:
        groups.setdefault(k, []).append(v)
    cctx = TaskContext(outer_ctx.task_id + ".combine", outer_ctx.attempt)
    for k, vs in groups.items():
        cctx._ops += float(len(vs))
        combine_fn(k, vs, cctx)
    cctx.counters.incr(COMBINE_INPUT_RECORDS, len(pairs))
    cctx.counters.incr(COMBINE_OUTPUT_RECORDS, len(cctx.output))
    outer_ctx.counters.merge(cctx.counters)
    outer_ctx.add_ops(cctx.ops)
    return cctx.output


@collector_held()
def run_reduce_task(
    task_index: int,
    attempt: int,
    groups: "list[tuple[Any, list]] | ColumnarRun | ColumnarGroups | ShmGroupsRef",
    reduce_fn: Any,
    fault_plan: "FaultPlan | None" = None,
    measure_output: bool = True,
    shm_threshold: "int | None" = None,
    shm_prefix: "str | None" = None,
    job_shape: "tuple[int, int] | None" = None,
) -> TaskResult:
    """Execute one reduce task attempt over its input.

    The runtime hands a columnar reducer its *ungrouped* run
    (:class:`~repro.engine.shuffle.ColumnarRun`): the task reads the
    map buckets — straight out of the segments the map workers parked
    them in, under the shm transport — and groups them itself, so the
    driver never touches shuffle data.  The segments are left in place
    (a retried attempt reads them again; the driver unlinks them when
    the run ends).

    Columnar grouped input with a declarative reduce (a named
    aggregation or :class:`~repro.engine.columnar.ColumnarReduce`) runs
    as one segmented array reduction; a classic callable reduce gets
    the groups materialised worker-side (so even custom reduces keep
    the columnar shuffle transport).  Object grouped input runs the
    classic per-group loop, resolving declarative reduces to their
    object-path oracle spelling.

    ``measure_output`` asks the task to estimate its output bytes
    worker-side (``TaskResult.nbytes``); the runtime disables it for
    cluster-less object-path runs, where nothing consumes the value and
    the per-object scan would be pure overhead (the columnar path
    measures for free either way).

    Direct callers may also pass already-grouped columnar input:
    :class:`~repro.engine.columnar.ColumnarGroups`, or its
    shared-memory handle (:class:`~repro.engine.shm.ShmGroupsRef`,
    read in place, the segment left for a retry).  With
    ``shm_threshold`` set, a large columnar output block is parked in
    shared memory for the driver to take.  ``job_shape`` lets a pool
    worker keep the grouping plan of slot ``("reduce", task_index)``,
    as :func:`run_map_task` keeps its map's.
    """
    task_id = f"r{task_index}"
    keep = _plan_keeper(("reduce", task_index), job_shape)
    if fault_plan is not None:
        _stall(fault_plan, "reduce", task_index, attempt)
        fault_plan.maybe_fail("reduce", task_index, attempt)
    if isinstance(reduce_fn, ShmPickleRef):
        reduce_fn = reduce_fn.load()  # parked once per run, cached
    if isinstance(groups, ColumnarRun):
        groups = groups.group(keep)
    elif isinstance(groups, ShmGroupsRef):
        groups = groups.take(unlink=False)
    if isinstance(groups, ColumnarGroups):
        cr = as_columnar_reduce(reduce_fn)
        if cr is not None:
            return _run_columnar_reduce(
                task_id, attempt, groups, cr, shm_threshold=shm_threshold,
                shm_prefix=f"{shm_prefix}r{task_index}a{attempt}"
                if shm_prefix is not None else None)
        groups = groups.to_pairs()
    ctx = TaskContext(task_id, attempt)
    reduce_fn = object_reducer(reduce_fn)
    n_groups = n_records = 0
    for key, values in groups:
        n_groups += 1
        n_records += len(values)
        ctx._ops += float(len(values))  # add_ops, minus the call
        reduce_fn(key, values, ctx)
    if ctx.columnar_output:
        raise RuntimeError(
            f"reduce task {task_id} emitted emit_block() output; "
            "a reduce emits its pairs with emit()"
        )
    ctx.counters.incr(REDUCE_INPUT_GROUPS, n_groups)
    ctx.counters.incr(REDUCE_INPUT_RECORDS, n_records)
    ctx.counters.incr(REDUCE_OUTPUT_RECORDS, len(ctx.output))
    ctx.counters.incr(REDUCE_OPS, int(ctx.ops))
    nbytes = estimate_nbytes(ctx.output) if measure_output else 0
    return TaskResult(task_id=task_id, attempt=attempt, data=ctx.output,
                      counters=ctx.counters, ops=ctx.ops, nbytes=nbytes)


def _run_columnar_reduce(task_id: str, attempt: int, groups: ColumnarGroups,
                         cr: Any, *, shm_threshold: "int | None" = None,
                         shm_prefix: "str | None" = None) -> TaskResult:
    """Vectorised reduce: segmented aggregation + optional epilogue."""
    ctx = TaskContext(task_id, attempt)
    keys, rows = groups.aggregate(cr.agg)
    if cr.finish is not None:
        rows = np.asarray(cr.finish(keys, rows), dtype=np.float64)
    out = ColumnarBlock(keys, rows, groups.dictionary)
    ctx.counters.incr(REDUCE_INPUT_GROUPS, groups.num_groups)
    ctx.counters.incr(REDUCE_INPUT_RECORDS, groups.num_records)
    # Cost parity with the object loop: one op per input record (the
    # group scans) plus one per emitted record.
    ctx.add_ops(float(groups.num_records + len(out)))
    ctx.counters.incr(REDUCE_OUTPUT_RECORDS, len(out))
    ctx.counters.incr(REDUCE_OPS, int(ctx.ops))
    nbytes = out.nbytes
    data: Any = out
    if shm_threshold is not None and shm_prefix is not None:
        data = export_block(out, shm_prefix, shm_threshold)
    return TaskResult(task_id=task_id, attempt=attempt, data=data,
                      counters=ctx.counters, ops=ctx.ops, nbytes=nbytes)
