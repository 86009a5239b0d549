"""The MapReduce runtime: one task driver, persistent executors, retries.

``MapReduceRuntime.run(job, splits)`` executes the full map -> shuffle ->
reduce pipeline and returns a :class:`JobResult` with outputs, merged
counters, and (when a :class:`~repro.cluster.SimCluster` is attached) the
simulated-time breakdown of the run.

Three executors share identical semantics — and one code path:

* ``"serial"`` — in-process, single-threaded; the reference.  It is an
  executor object too: ``submit`` runs the call inline and hands back a
  finished ``Future``.
* ``"threads"`` — a thread pool; map tasks that release the GIL (NumPy
  kernels) genuinely overlap.
* ``"processes"`` — a process pool; requires picklable user functions.

One driver, one attempt identity
--------------------------------
Every phase of every job on every executor runs through
:meth:`MapReduceRuntime._run_phase`, an event loop over futures.  The
paper recovers from failure by "re-scheduling failed computations on
another running node" (§II), and that is the only mechanism here: each
future is one :class:`Attempt` ``(task, kind, seq)`` of a task, and a
retry (``primary`` again, after a failed attempt), a LATE speculative
``backup`` and a node-death lineage ``replay`` are all just another
attempt of the same task, spawned by the same function.  The integer a
task runner sees — what :class:`~repro.engine.faults.FaultPlan`
decisions and shared-memory segment names are keyed on — is
:meth:`Attempt.number`: a task's primaries count ``0, 1, ...`` below
``max_attempts``, its backups and replays share one sequence from
``max_attempts`` up, so no two attempts of a task ever collide.  Every
spawn is appended to a per-job ledger, and an aborted job unlinks
exactly the segments those attempts could have parked.

Pool lifecycle
--------------
The runtime owns **one long-lived worker pool**: it is created lazily on
the first parallel phase and reused across phases, attempts, and jobs —
an iterative driver running hundreds of tiny jobs pays the pool start-up
cost once, not twice per global iteration.  Call :meth:`close` (or use
the runtime as a context manager) to release the workers; a closed
runtime transparently re-creates its pool on the next ``run``.

Streaming shuffle
-----------------
All of a phase's tasks are submitted at once; a failed attempt is
resubmitted the moment it is observed, and map results stream into an
incremental :class:`~repro.engine.shuffle.ShuffleBuffer` as each task
completes.  Object buckets merge as they arrive, so reducer tables are
built concurrently with the map phase instead of after a full-list
barrier.  Columnar buckets are only *located* by the driver — it lines
each reducer's blocks (or, under the shm transport, the names of the
segments the map workers parked them in) up in map-task order and never
reads them; every reduce task is handed its ungrouped
:class:`~repro.engine.shuffle.ColumnarRun`, reads the buckets in place
and groups them itself, so the reducers merge in parallel and the
synchronisation step stays thin.  The reduce phase starts once the
buffer is sealed.

Failed task attempts (see :mod:`repro.engine.faults`) are retried up to
``JobConf.max_attempts`` times by deterministic replay; because tasks are
pure functions of their input split, a replay produces identical output,
and the cross-executor/fault-equivalence property tests assert exactly
that.
"""

from __future__ import annotations

import concurrent.futures
import errno
import itertools
import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.cluster import SimCluster, SpeculationConfig, late_threshold
from repro.engine.columnar import ColumnarBlock
from repro.engine.counters import (
    Counters,
    LOST_MAP_OUTPUTS,
    NODE_DEATHS,
    SHUFFLE_BYTES,
    SPECULATIVE_BACKUPS,
    SPECULATIVE_WASTED_TASKS,
    SPECULATIVE_WINS,
    TASK_RETRIES,
)
from repro.engine.faults import FaultPlan, NodeFaultPlan, SimulatedTaskFailure
from repro.engine.job import Job
from repro.engine.shm import (
    SHM_MIN_BYTES,
    SegmentRegistry,
    ShmBlockRef,
    _unlink_quietly,
    export_pickled,
    export_splits,
)
from repro.engine.shuffle import ShuffleBuffer
from repro.engine.task import TaskResult, run_map_task, run_reduce_task

__all__ = ["JobResult", "MapReduceRuntime", "JobFailedError"]

_EXECUTORS = ("serial", "threads", "processes")


class JobFailedError(RuntimeError):
    """A task exhausted its attempts; the job cannot complete."""


@dataclass(eq=False)
class Attempt:
    """One execution of one task — the driver's only attempt identity.

    ``kind`` says why it was spawned: ``"primary"`` (the first try, and
    every retry after a failed attempt), ``"backup"`` (a LATE
    speculative twin racing a slow attempt) or ``"replay"`` (lineage
    re-execution after a node death).  ``seq`` counts within the task:
    primaries by the failures before them, backups and replays together
    by spawn order.
    """

    task: int
    kind: str
    seq: int
    future: "concurrent.futures.Future | None" = None
    #: When the LATE monitor saw the attempt reach a worker; None while
    #: it is queued behind older attempts (queue wait is not lateness).
    started: "float | None" = None
    #: Condemned by a node death that could not cancel it: it runs to
    #: completion and whatever it produced is discarded.
    doomed: bool = False

    def number(self, max_attempts: int) -> int:
        """The attempt integer the task runner sees.

        Fault-plan decisions and shared-memory segment names are keyed
        on it.  Primaries stay below ``max_attempts`` (a task fails at
        most that many times); everything else counts up from there, so
        no two attempts of a task share a number.
        """
        return self.seq if self.kind == "primary" else max_attempts + self.seq


@dataclass
class _TaskState:
    """What the driver knows about one task of a phase."""

    result: "TaskResult | None" = None
    #: Failed attempts charged against ``max_attempts`` (= the next
    #: primary's ``seq``).
    failures: int = 0
    #: Backups and replays spawned so far (= the next one's ``seq``).
    extras: int = 0
    #: In-flight attempts still racing for this task's result.
    live: "list[Attempt]" = field(default_factory=list)


class _InlineExecutor(concurrent.futures.Executor):
    """The ``"serial"`` executor: ``submit`` runs the call and returns
    an already-finished future, so the one driver serves it too."""

    def submit(self, fn, /, *args, **kwargs):
        fut: concurrent.futures.Future = concurrent.futures.Future()
        try:
            fut.set_result(fn(*args, **kwargs))
        except Exception as exc:
            fut.set_exception(exc)
        return fut


class JobResult:
    """Everything a completed job hands back.

    Columnar jobs return their output as one typed block
    (:attr:`columnar_output`); the classic :attr:`output` pair list is
    materialised lazily on first access, so array-consuming callers
    (e.g. a columnar-capable iterative spec) never pay for it.
    """

    def __init__(self, output: "list | None" = None,
                 counters: "Counters | None" = None,
                 sim_times: "dict | None" = None, *,
                 columnar_output: "ColumnarBlock | None" = None,
                 output_nbytes: int = 0) -> None:
        self._output = output
        #: Typed output block (columnar jobs only; None otherwise).
        self.columnar_output = columnar_output
        self.counters = counters if counters is not None else Counters()
        #: Simulated seconds, split by phase (empty without a cluster).
        self.sim_times = sim_times if sim_times is not None else {}
        #: Output bytes, measured worker-side by the reduce tasks.
        self.output_nbytes = int(output_nbytes)

    @property
    def output(self) -> list:
        """Final output pairs, concatenated over reducers (key-sorted per
        reducer when the job requests sorting)."""
        if self._output is None:
            self._output = (self.columnar_output.to_pairs()
                            if self.columnar_output is not None else [])
        return self._output

    @property
    def sim_time_total(self) -> float:
        return float(sum(self.sim_times.values()))

    def as_dict(self) -> dict:
        """Output pairs as a dict (duplicate keys: last write wins)."""
        return dict(self.output)


class MapReduceRuntime:
    """Executes jobs with a chosen executor and optional cluster accounting.

    Parameters
    ----------
    executor:
        One of ``"serial"``, ``"threads"``, ``"processes"``.
    workers:
        Pool size for the parallel executors (default: CPU count).
    cluster:
        Optional :class:`SimCluster`; when present, every job charges
        job startup, map/reduce phase makespans (from measured op
        counts), shuffle bytes, the barrier, and the DFS round trip.
    fault_plan:
        Failure injection plan applied to every job this runtime runs.
    shm_transport:
        Ship a columnar job's large payloads — its functions, its input
        splits, the map buckets and the reduce outputs — through named
        shared-memory segments instead of pickling them through the
        pool's pipes (see :mod:`repro.engine.shm`).  Defaults to on for the
        ``"processes"`` executor and off otherwise (serial and thread
        workers share the driver's address space already).
    shm_min_bytes:
        Minimum payload bytes before a payload rides shared memory;
        smaller ones stay on the pickle path.
    speculate:
        LATE-style speculative re-execution (``True`` for defaults, or a
        :class:`~repro.cluster.SpeculationConfig`).  Once enough tasks
        of a phase have finished to estimate its completion percentile,
        any in-flight task running past ``slowdown_threshold`` x that
        estimate gets a *backup* attempt submitted to the pool; the
        first attempt to finish wins and the loser is cancelled (or its
        result — and any shared-memory segments it parked — discarded).
        Lateness is measured from when an attempt reached a worker
        (pools dispatch first-in first-out, so the oldest ``workers``
        in-flight attempts are the running ones) against the durations
        finished attempts measured worker-side; an attempt still waiting
        in the queue is never late.  Tasks are pure functions of their
        split, so both attempts produce identical output and
        first-result-wins is safe; under the serial executor nothing is
        ever in flight, so the flag has no effect.
    node_faults:
        Correlated-failure injection
        (:class:`~repro.engine.NodeFaultPlan`).  Map tasks are placed on
        notional nodes round-robin (task ``i`` on node ``i %
        num_nodes``); a scripted node death fires once the round's
        completed-map count reaches the death's ``after_completions``
        and atomically (1) cancels every in-flight attempt placed on the
        dead domain — un-cancellable ones run to completion and their
        results are discarded, shm segments unlinked — and (2)
        *invalidates* the domain's completed map outputs in the shuffle
        buffer, re-running the lost tasks: lineage-based replay, not
        just retry.  A replay is one more :class:`Attempt` of the task
        (numbered past ``max_attempts``, like a backup), so fault
        scripting and shm segment names never collide with the
        primaries'.  Needs a pool executor (serial attempts finish
        inside ``submit``: there is no in-flight set to kill).
    """

    def __init__(
        self,
        executor: str = "serial",
        *,
        workers: "int | None" = None,
        cluster: "SimCluster | None" = None,
        fault_plan: "FaultPlan | None" = None,
        shm_transport: "bool | None" = None,
        shm_min_bytes: int = SHM_MIN_BYTES,
        speculate: "SpeculationConfig | bool | None" = None,
        node_faults: "NodeFaultPlan | None" = None,
    ) -> None:
        if executor not in _EXECUTORS:
            raise ValueError(f"executor must be one of {_EXECUTORS}, got {executor!r}")
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if shm_min_bytes < 0:
            raise ValueError("shm_min_bytes must be >= 0")
        if (node_faults is not None and not node_faults.is_empty
                and executor == "serial"):
            raise ValueError(
                "node_faults needs a pool executor: the serial path has "
                "no in-flight attempts for a node death to kill")
        self.speculation: "SpeculationConfig | None" = None
        if speculate:
            self.speculation = (speculate
                                if isinstance(speculate, SpeculationConfig)
                                else SpeculationConfig())
        self.executor = executor
        self.workers = workers if workers is not None else os.cpu_count() or 1
        self.cluster = cluster
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan.none()
        self.shm_transport = (executor == "processes" if shm_transport is None
                              else bool(shm_transport))
        self.shm_min_bytes = int(shm_min_bytes)
        self.node_faults = (node_faults if node_faults is not None
                            else NodeFaultPlan.none())
        #: (round, node) deaths already fired: a checkpoint-rollback
        #: replay of a round must not re-kill the node (the machine died
        #: once; the replay runs on the survivors).
        self._fired_deaths: "set[tuple[int, int]]" = set()
        #: Driver-side ledger of live shared-memory segments (see
        #: :class:`~repro.engine.shm.SegmentRegistry`): the parked job
        #: functions and the map buckets the reducers read in place are
        #: registered here and unlinked in ``run``'s ``finally`` — and,
        #: as a backstop, on :meth:`close`/``__del__``.
        self.segments = SegmentRegistry()
        self._pool: "concurrent.futures.Executor | None" = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    @property
    def pool(self) -> "concurrent.futures.Executor | None":
        """The live persistent pool (None for serial / before first use)."""
        return self._pool

    def close(self) -> None:
        """Shut down the persistent worker pool and join its workers.

        Idempotent; a later :meth:`run` lazily re-creates the pool.
        Also unlinks any shared-memory segments still registered (none
        after a cleanly completed job).
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self.segments.release_all()

    def __enter__(self) -> "MapReduceRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def _acquire_pool(self) -> concurrent.futures.Executor:
        """The executor attempts are submitted to (the pool is lazy)."""
        if self.executor == "serial":
            return _InlineExecutor()
        if self._pool is None:
            pool_cls = (
                concurrent.futures.ThreadPoolExecutor
                if self.executor == "threads"
                else concurrent.futures.ProcessPoolExecutor
            )
            self._pool = pool_cls(max_workers=self.workers)
        return self._pool

    def _abort_phase(self, futures: "dict[concurrent.futures.Future, Attempt]",
                     exc: BaseException) -> None:
        """Error-path cleanup: cancel what hasn't started, wait out what
        has, drop a pool the error has broken (the caller re-raises)."""
        for fut in futures:
            fut.cancel()
        # A running attempt (e.g. a stalled primary whose backup is
        # racing) cannot be cancelled and keeps parking segments; the
        # abort sweep must not run until no task of this job can still
        # write.  Cancelled futures complete immediately.
        concurrent.futures.wait(futures)
        # A dead worker (segfault, OOM-kill, ``os._exit`` in user code)
        # leaves the executor permanently broken; keeping it would fail
        # every later ``run()`` with ``BrokenExecutor``.
        if (isinstance(exc, concurrent.futures.BrokenExecutor)
                and self._pool is not None):
            self._pool.shutdown(wait=False)
            self._pool = None

    # ------------------------------------------------------------------
    def run(self, job: Job, splits: "Sequence[Sequence[tuple[Any, Any]]]", *,
            accountant=None, round_index: int = 0) -> JobResult:
        """Run ``job`` over ``splits`` (one map task per split).

        ``accountant`` optionally routes this job's simulated charges
        through a caller-owned
        :class:`~repro.cluster.accountant.RoundAccountant` (over this
        runtime's cluster) instead of a fresh anonymous one — how a
        multi-job session attributes engine-path charges, applies the
        scheduler's slot share, and prefixes trace labels per job.

        ``round_index`` names the global iteration this job implements,
        which is what the :class:`NodeFaultPlan` keys its scripted
        deaths on (a standalone job is round 0).
        """
        conf = job.conf
        splits = [list(s) for s in splits]
        counters = Counters()
        # Scripted node deaths for this round: known up front, so only
        # rounds that actually lose a node pay the defer-merge mode
        # (invalidation needs contributions to stay retractable).
        deaths = self.node_faults.deaths_in_round(round_index)
        deaths = {n: d for n, d in deaths.items()
                  if (round_index, n) not in self._fired_deaths}
        buffer = ShuffleBuffer(len(splits), conf.num_reducers,
                               sort_keys=conf.sort_keys,
                               defer_merge=bool(deaths))
        # Shared-memory transport: large columnar payloads ride named
        # segments; only refs (names + metadata) cross the result pipe.
        shm = self.shm_transport and conf.columnar
        shm_threshold = self.shm_min_bytes if shm else None
        shm_prefix = self.segments.new_prefix() if shm else None
        map_fn, reduce_fn, inputs = job.map_fn, job.reduce_fn, splits

        def park(export, payload, suffix: str):
            """Export ``payload`` under this run's prefix; a parked
            segment is the driver's from its creation on."""
            ref = export(payload, f"{shm_prefix}{suffix}", self.shm_min_bytes)
            if ref is not payload:
                self.segments.adopt(f"{shm_prefix}{suffix}")
            return ref

        #: (phase, task, attempt number) of every attempt spawned — what
        #: the abort path below sweeps.
        spawned: "list[tuple[str, int, int]]" = []
        death_stats = {"node_deaths": 0, "lost_map_outputs": 0,
                       "killed_in_flight": 0, "lost_ops": 0}

        def consume_map(i: int, res: TaskResult) -> None:
            # Parked buckets stay where the map worker put them; the
            # driver only takes over their lifetime.  Reduce attempts
            # (retries included) read them in place, so they are
            # unlinked in the finally below, not on receipt — and so is
            # an output a node death invalidates after this point.
            for b in res.data:
                if isinstance(b, ShmBlockRef):
                    self.segments.adopt(b.name)
            buffer.add(i, res.data)

        try:
            if shm:
                # Ship what every attempt re-reads once per run, not once
                # per task: the pool re-pickles every submission's args.
                # The functions (a map callable closes over per-partition
                # arrays) and the splits (which share the round's state
                # vector) each ride one segment; tasks carry small refs.
                map_fn = park(export_pickled, job.map_fn, "f")
                reduce_fn = park(export_pickled, job.reduce_fn, "rf")
                try:
                    inputs = park(export_splits, splits, "s")
                except OSError as exc:
                    if exc.errno != errno.ENOSPC:
                        raise
                    # A full /dev/shm: the splits take the pipe, as they
                    # do below the threshold (the partial ``s`` is gone).
            map_results = self._run_phase(
                phase="map",
                count=len(splits),
                make_args=lambda i, attempt: (
                    i, attempt, inputs[i], map_fn, job.combine_fn,
                    job.partitioner, conf.num_reducers, self.fault_plan,
                    conf.columnar, conf.combine_crossover, shm_threshold,
                    shm_prefix,
                ),
                runner=run_map_task,
                max_attempts=conf.max_attempts,
                counters=counters,
                spawned=spawned,
                consume=consume_map,
                deaths=deaths,
                round_index=round_index,
                buffer=buffer,
                death_stats=death_stats,
            )
            for res in map_results:
                counters.merge(res.counters)

            sbytes = sum(res.nbytes for res in map_results)
            counters.incr(SHUFFLE_BYTES, sbytes)
            # Columnar shuffles hand each reducer its ungrouped run; the
            # task groups it worker-side (declarative reduces then run
            # vectorised, callable reduces materialise the exact object
            # groups).  Object shuffles are grouped here, as they merged.
            grouped = (buffer.columnar_runs() if buffer.columnar
                       else buffer.groups())

            reduce_results = self._run_phase(
                phase="reduce",
                count=conf.num_reducers,
                make_args=lambda i, attempt: (
                    i, attempt, grouped[i], reduce_fn, self.fault_plan,
                    self.cluster is not None,  # output bytes feed the charges
                    shm_threshold, shm_prefix,
                ),
                runner=run_reduce_task,
                max_attempts=conf.max_attempts,
                counters=counters,
                spawned=spawned,
            )
            output: "list | None" = None
            columnar_output: "ColumnarBlock | None" = None
            out_nbytes = 0
            out_blocks: "list[ColumnarBlock]" = []
            for res in reduce_results:
                counters.merge(res.counters)
                out_nbytes += res.nbytes
                if isinstance(res.data, ShmBlockRef):
                    res.data = res.data.take()
                if isinstance(res.data, ColumnarBlock):
                    out_blocks.append(res.data)
            if len(out_blocks) == len(reduce_results) and reduce_results:
                columnar_output = ColumnarBlock.concat(out_blocks)
            else:
                output = []
                for res in reduce_results:
                    output.extend(res.data)
        except BaseException:
            if shm:
                # Abort path: completed-but-unconsumed attempts may have
                # parked segments whose refs never reached us.  Names
                # are a function of the attempt, so the spawn ledger
                # says exactly which ones can exist.
                self.segments.sweep(shm_prefix, spawned, conf.num_reducers)
            raise
        finally:
            if shm:
                self.segments.release_all()

        sim_times = self._account(job, map_results, reduce_results, sbytes,
                                  out_nbytes, accountant=accountant,
                                  death_stats=death_stats)
        return JobResult(output=output, counters=counters,
                         sim_times=sim_times, columnar_output=columnar_output,
                         output_nbytes=out_nbytes)

    # ------------------------------------------------------------------
    @staticmethod
    def _discard_result(res: TaskResult) -> None:
        """Throw away a losing attempt's output, unlinking any segments
        it parked (they were never adopted; nobody will read them)."""
        data = res.data
        refs = data if isinstance(data, (list, tuple)) else [data]
        for ref in refs:
            if isinstance(ref, ShmBlockRef):
                _unlink_quietly(ref.name)

    def _run_phase(self, *, phase: str, count: int, make_args, runner,
                   max_attempts: int, counters: Counters,
                   spawned: "list[tuple[str, int, int]]",
                   consume: "Callable[[int, TaskResult], None] | None" = None,
                   deaths=None, round_index: int = 0, buffer=None,
                   death_stats=None) -> "list[TaskResult]":
        """The task driver: run ``count`` tasks to one result each.

        Every task gets a primary attempt up front; from then on the
        loop reacts to completions, and each policy only decides *when
        to spawn another attempt* of a task:

        * **retry** — a failed attempt is followed by the next primary
          the moment the failure is observed (no per-attempt barrier),
          until the task has failed ``max_attempts`` times;
        * **speculate** — the wait doubles as the LATE monitor: a
          running attempt whose elapsed time exceeds
          ``slowdown_threshold`` x the ``percentile`` of finished
          attempts' durations gets one backup, and the first attempt to
          succeed wins (the twin is cancelled if still queued, else its
          result is discarded and its segments unlinked);
        * **replay** — with a ``deaths`` map (node ->
          :class:`NodeDeath`, map phase only) task ``i`` lives on
          notional node ``i % num_nodes``; once the completed count
          reaches a death's ``after_completions`` the node's whole
          domain dies at once: in-flight attempts are cancelled
          (un-cancellable ones become *doomed*), completed outputs are
          invalidated in the defer-merge shuffle ``buffer``, and every
          affected task is replayed, notionally on a surviving node (a
          node dies at most once per round).

        Task runners are pure functions of their split, so whichever
        attempt wins, the bytes are the same.  Successful results are
        handed to ``consume`` in completion order (the shuffle buffer
        restores map order internally); the returned list is in task
        order.
        """
        tasks = [_TaskState() for _ in range(count)]
        spec = self.speculation
        pool = self._acquire_pool()
        #: In-flight attempts, oldest submission first.
        futures: "dict[concurrent.futures.Future, Attempt]" = {}
        durations: "list[float]" = []
        pending_deaths = dict(deaths or {})
        num_nodes = self.node_faults.num_nodes
        completed = 0

        def spawn(i: int, kind: str) -> None:
            task = tasks[i]
            att = Attempt(i, kind, task.failures if kind == "primary"
                          else task.extras)
            if kind != "primary":
                task.extras += 1
            number = att.number(max_attempts)
            spawned.append((phase, i, number))
            att.future = pool.submit(runner, *make_args(i, number))
            futures[att.future] = att
            task.live.append(att)

        def cancel(att: Attempt) -> bool:
            """Withdraw a still-queued attempt; False if it is running."""
            if not att.future.cancel():
                return False
            del futures[att.future]
            tasks[att.task].live.remove(att)
            return True

        def fire_deaths() -> None:
            """Kill every node whose completion trigger has been met."""
            dead_nodes = {d.node for d in pending_deaths.values()
                          if completed >= d.after_completions}
            if not dead_nodes:
                return
            for node in dead_nodes:
                del pending_deaths[node]
                self._fired_deaths.add((round_index, node))
                counters.incr(NODE_DEATHS)
                death_stats["node_deaths"] += 1
            for i, task in enumerate(tasks):
                if i % num_nodes not in dead_nodes:
                    continue
                if task.result is not None:
                    # Lineage loss: the node's completed map outputs
                    # (shuffle partitions) died with it.  Retract the
                    # contribution and re-run the task.
                    buffer.invalidate(i)
                    death_stats["lost_ops"] += task.result.ops
                    death_stats["lost_map_outputs"] += 1
                    counters.incr(LOST_MAP_OUTPUTS)
                    task.result = None
                for att in list(task.live):
                    # In-flight attempts on the domain die with it.
                    if not cancel(att):
                        att.doomed = True
                        task.live.remove(att)
                    death_stats["killed_in_flight"] += 1
                spawn(i, "replay")

        def launch_late_backups() -> None:
            """The LATE check over the attempts that hold a worker."""
            now = time.monotonic()
            # Pools dispatch first-in first-out, so the oldest
            # ``workers`` in-flight attempts are the running ones.
            running = list(itertools.islice(futures.values(), self.workers))
            for att in running:
                if att.started is None:
                    att.started = now
            if not durations or completed < math.ceil(
                    spec.min_completed_fraction * count):
                return
            cut = late_threshold(durations,
                                 slowdown_threshold=spec.slowdown_threshold,
                                 percentile=spec.percentile)
            for att in running:
                task = tasks[att.task]
                if (now - att.started > cut and att.kind != "backup"
                        and not att.doomed and task.result is None
                        and not any(a.kind == "backup" for a in task.live)):
                    counters.incr(SPECULATIVE_BACKUPS)
                    spawn(att.task, "backup")

        try:
            for i in range(count):
                spawn(i, "primary")
            while True:
                if pending_deaths:
                    fire_deaths()  # may spawn replays after the last result
                if not futures:
                    break
                if spec is not None:
                    launch_late_backups()
                # Death triggers only advance when a completion arrives,
                # and completions wake the wait — so no polling beyond
                # the LATE monitor's.
                done, _ = concurrent.futures.wait(
                    futures,
                    timeout=spec.check_interval if spec is not None else None,
                    return_when=concurrent.futures.FIRST_COMPLETED)
                woke = time.monotonic()
                for fut in done:
                    att = futures.pop(fut)
                    task = tasks[att.task]
                    if not att.doomed:
                        task.live.remove(att)
                    lost = att.doomed or task.result is not None
                    try:
                        res = fut.result()
                    except SimulatedTaskFailure:
                        if lost:
                            continue  # orphaned anyway / the twin won
                        if att.kind != "backup":
                            counters.incr(TASK_RETRIES)
                            task.failures += 1
                            if task.failures < max_attempts:
                                spawn(att.task, "primary")
                        # Out of attempts — unless a twin still races.
                        if task.failures >= max_attempts and not task.live:
                            raise JobFailedError(
                                f"{phase} task {att.task} failed "
                                f"{max_attempts} attempts")
                        continue
                    if lost:
                        # Identical bytes, but its segments are orphans.
                        self._discard_result(res)
                        if not att.doomed:
                            counters.incr(SPECULATIVE_WASTED_TASKS)
                        continue
                    task.result = res
                    completed += 1
                    if att.started is not None:
                        durations.append(woke - att.started)
                    if att.kind == "backup":
                        counters.incr(SPECULATIVE_WINS)
                    if consume is not None:
                        consume(att.task, res)
                    for twin in list(task.live):
                        cancel(twin)  # a running twin is discarded above
        except BaseException as exc:
            self._abort_phase(futures, exc)
            raise
        return [task.result for task in tasks]

    # ------------------------------------------------------------------
    def _account(self, job: Job, map_results: "list[TaskResult]",
                 reduce_results: "list[TaskResult]", sbytes: int,
                 out_nbytes: int, *, accountant=None,
                 death_stats: "dict | None" = None) -> dict:
        """Charge the simulated cluster for this job; returns the breakdown.

        All charges flow through the shared
        :class:`~repro.cluster.accountant.RoundAccountant` — the same
        audited path the iterative drivers use — either the caller's
        (per-job attribution) or a fresh anonymous one.
        """
        if self.cluster is None:
            # No simulated time to charge, but correlated-failure stats
            # still surface on the caller's ledger (a clusterless engine
            # run should still report its deaths and lost outputs).
            if accountant is not None and death_stats \
                    and death_stats["node_deaths"]:
                accountant.charge_recovery(
                    0.0, node_deaths=death_stats["node_deaths"],
                    lost_map_outputs=death_stats["lost_map_outputs"])
            return {}
        from repro.cluster.accountant import RoundAccountant

        acct = (accountant if accountant is not None
                else RoundAccountant(self.cluster))
        cm = self.cluster.cost_model
        times: dict[str, float] = {}
        times["startup"] = acct.charge_job_startup(
            label=f"{job.conf.name}:startup")
        times["map"] = acct.run_map_phase(
            [cm.map_compute_seconds(r.ops) for r in map_results],
            label=f"{job.conf.name}:map")
        times["shuffle"] = acct.charge_shuffle(
            sbytes, label=f"{job.conf.name}:shuffle")
        times["reduce"] = acct.run_reduce_phase(
            [cm.reduce_compute_seconds(r.ops) for r in reduce_results],
            label=f"{job.conf.name}:reduce")
        times["barrier"] = acct.charge_barrier(
            label=f"{job.conf.name}:barrier")
        if death_stats and death_stats["node_deaths"]:
            # The recovery timeline the real executor cannot measure in
            # wall-clock terms: heartbeat silence until the death is
            # *detected*, plus re-executing the work the domain took
            # with it (the map-phase charge above only prices the
            # surviving attempts' final ops).
            times["recovery"] = acct.charge_recovery(
                self.node_faults.heartbeat_seconds
                + cm.map_compute_seconds(death_stats["lost_ops"]),
                node_deaths=death_stats["node_deaths"],
                lost_map_outputs=death_stats["lost_map_outputs"],
                label=f"{job.conf.name}:recovery")
        if acct.config is None:
            # Standalone job: its output round-trips the DFS, charged
            # from the bytes the reduce tasks measured worker-side
            # (shuffle_bytes stays available as the direct-caller
            # oracle).  Iterative drivers pass a DriverConfig-carrying
            # accountant and charge the inter-round state themselves,
            # through the config's partitioned StateStore (see
            # EngineBackend.run_round).
            times["dfs"] = acct.charge_dfs_roundtrip(
                out_nbytes, label=f"{job.conf.name}:dfs")
        return times
