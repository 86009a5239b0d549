"""Job definition: user functions plus configuration.

A :class:`Job` bundles the programmer-supplied ``map``/``reduce`` (and
optional ``combine``) functions with a :class:`JobConf`.  The function
signatures follow the paper's description of the traditional MapReduce
API (§II):

* ``map_fn(key, value, ctx)`` — called once per input record; emits
  intermediate pairs with ``ctx.emit(k, v)``.
* ``reduce_fn(key, values, ctx)`` — called once per distinct key with
  the full list of values; emits output pairs with ``ctx.emit(k, v)``.
* ``combine_fn(key, values, ctx)`` — optional map-side pre-aggregation
  ("a combiner is often used to aggregate over keys from map tasks
  executing on the same node", §II); must be semantically idempotent
  with respect to the reduce for correctness, which the property tests
  verify for the bundled applications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.engine.columnar import ColumnarReduce, resolve_agg
from repro.engine.partitioner import HashPartitioner, Partitioner

__all__ = ["JobConf", "Job"]

MapFn = Callable[[Any, Any, Any], None]
ReduceFn = Callable[[Any, list, Any], None]


@dataclass(frozen=True)
class JobConf:
    """Static configuration of one MapReduce job.

    Every job runs through the same task driver, which streams map
    results into the shuffle buffer and resubmits failed attempts at
    once; the reduce phase starts when the buffer is sealed.  With a
    cluster attached, the shuffle is charged in full after the map
    phase.
    """

    #: Number of reduce tasks (R).  Map task count follows the input splits.
    num_reducers: int = 8
    #: Maximum attempts per task before the job fails (Hadoop default 4).
    max_attempts: int = 4
    #: Sort keys within each reduce partition (deterministic output order).
    sort_keys: bool = True
    #: Human-readable job name for traces and errors.
    name: str = "job"
    #: Allow the columnar fast path when map tasks emit typed batches
    #: (``ctx.emit_block``): vectorised routing/combining/grouping and
    #: dtype-math byte accounting.  ``False`` forces such jobs through
    #: the object path (materialised pairs) — the oracle the columnar
    #: equivalence tests compare against.  Output is byte-identical
    #: either way.
    columnar: bool = True
    #: Minimum records per map batch before a *named* combiner runs —
    #: below it the grouping sort costs more than the bytes it saves,
    #: so the combine is skipped outright.  Applied identically on the
    #: columnar and object paths (callable combiners always run), so
    #: output stays byte-identical.  0 forces combining at any size.
    combine_crossover: int = 64

    def __post_init__(self) -> None:
        if self.num_reducers < 1:
            raise ValueError("num_reducers must be >= 1")
        if self.combine_crossover < 0:
            raise ValueError("combine_crossover must be >= 0")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


@dataclass
class Job:
    """User functions + configuration, ready for a runtime to execute.

    ``reduce_fn`` and ``combine_fn`` also accept *declarative* specs:
    a named aggregation string (``"sum"`` / ``"min"`` / ``"max"``) or,
    for the reduce, a :class:`~repro.engine.columnar.ColumnarReduce`.
    Declarative specs run vectorised on the columnar path and through
    arithmetic-identical object wrappers on the classic path, so the
    same job definition executes either way.
    """

    map_fn: MapFn
    reduce_fn: "ReduceFn | str | ColumnarReduce"
    combine_fn: "ReduceFn | str | None" = None
    conf: JobConf = field(default_factory=JobConf)
    partitioner: Partitioner = field(default_factory=HashPartitioner)

    def __post_init__(self) -> None:
        if not callable(self.map_fn):
            raise TypeError("map_fn must be callable")
        if isinstance(self.reduce_fn, str):
            resolve_agg(self.reduce_fn)
        elif not (callable(self.reduce_fn)
                  or isinstance(self.reduce_fn, ColumnarReduce)):
            raise TypeError(
                "reduce_fn must be callable, a named aggregation, or a "
                "ColumnarReduce")
        if isinstance(self.combine_fn, str):
            resolve_agg(self.combine_fn)
        elif self.combine_fn is not None and not callable(self.combine_fn):
            raise TypeError(
                "combine_fn must be callable, a named aggregation, or None")
