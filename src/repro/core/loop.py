"""The unified iteration core: one driver loop, pluggable sync backends.

The paper's whole contribution is a family of synchronization
disciplines over the *same* iterative fixed-point loop.  This module
owns that loop exactly once: :class:`IterationLoop` runs

    pre-iteration hook -> local work -> global combine ->
    convergence check -> :class:`RoundRecord` history

to convergence, parameterized by an :class:`IterationBackend` that
says *how* one global round executes and synchronizes:

* :class:`EngineBackend` — the record-at-a-time §IV API
  (:class:`~repro.core.api.AsyncMapReduceSpec`) on the real MapReduce
  engine; one global iteration is one engine job.
* :class:`BlockBackend` — the vectorised
  :class:`~repro.core.api.BlockSpec` path; iterates are computed by
  NumPy local solves and simulated time is charged from the reported
  op/byte counts.
* :class:`HierarchicalBackend` — §VIII's rack level, composing
  :class:`BlockBackend`: extra rack-local synchronization rounds run
  between the map phase and the global synchronization.

All simulated-cluster charging flows through one audited
:class:`~repro.cluster.accountant.RoundAccountant`, so the backends
cannot drift apart in what they charge (the pre-unification hierarchy
driver silently skipped the block path's periodic checkpoint and the
``extra_bytes`` shuffle — impossible by construction now).

The loop's synchronization budget is a per-round quantity, which opens
a seam the old triplicated drivers made impractical:
:class:`AdaptiveSyncPolicy` retunes ``max_local_iters`` every round
from the observed residual contraction.

The loop is re-entrant at round granularity (``start``/``step``/
``finish``), which is what lets a multi-job
:class:`~repro.core.session.Session` interleave many jobs' rounds on one
shared cluster clock (:mod:`repro.core.jobsched`).
"""

from __future__ import annotations

import abc
import copy
import functools
import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.cluster.accountant import RoundAccountant
from repro.cluster.statestore import even_split
from repro.core.api import AsyncMapReduceSpec, BlockSpec, LocalSolveReport
from repro.core.config import DriverConfig
from repro.core.gmap import GmapFunction, GreduceFunction, local_iter_counter
from repro.core.hierarchy import RACK_SHUFFLE_SPEEDUP, RACK_STARTUP_SECONDS
from repro.engine import Job, JobConf, MapReduceRuntime
from repro.engine.counters import SHUFFLE_BYTES
from repro.engine.shuffle import shuffle_bytes as _measure_output_bytes

__all__ = [
    "RoundRecord",
    "IterativeResult",
    "RoundOutcome",
    "IterationBackend",
    "EngineBackend",
    "BlockBackend",
    "HierarchicalBackend",
    "AdaptiveSyncPolicy",
    "IterationLoop",
]


@dataclass(frozen=True)
class RoundRecord:
    """Bookkeeping for one global iteration."""

    iteration: int
    residual: float
    #: Local iterations per partition in this round.
    local_iters: tuple
    #: Simulated seconds this round added (0 when no cluster attached).
    sim_seconds: float
    #: Bytes shipped through this round's global shuffle.
    shuffle_bytes: int
    #: Per-partition bytes routed through the inter-round state store
    #: (one entry per partition; the shape every backend reports).
    state_partition_bytes: tuple = ()
    #: Version-vector view of "which partition has seen which round":
    #: entry ``p`` is the *oldest* neighbour version partition ``p``
    #: consumed this round (lower than ``iteration`` when a staleness
    #: bound let reads lag behind).  Barrier rounds leave it empty.
    version_vector: tuple = ()
    # The fields from here on come from the accountant's per-round
    # ledger, by name (RoundAccountant.round_facts).
    #: Speculative backup copies launched in this round's phases
    #: (``DriverConfig.speculate``; 0 when speculation is off).
    backups: int = 0
    #: Backups that finished before their primary (the round's phases
    #: took the backup's result).
    backups_won: int = 0
    #: Duplicate seconds speculation burned this round: the discarded
    #: copy's work, whether the backup won or lost.
    wasted_seconds: float = 0.0
    #: Tablet splits the state store performed during this round
    #: (load-triggered auto-splitting; 0 for static tablet maps).
    tablet_splits: int = 0
    #: Worker deaths that fired during this round (correlated-failure
    #: injection via a :class:`~repro.engine.NodeFaultPlan`).
    node_deaths: int = 0
    #: Completed map outputs invalidated by this round's deaths and
    #: recomputed through lineage-based replay.
    lost_map_outputs: int = 0
    #: Simulated seconds this round spent recovering: heartbeat
    #: detection, re-executing the dead domain's work, and (after a
    #: rollback) re-reading the last durability checkpoint.
    recovery_seconds: float = 0.0
    #: Global iterations re-executed by this round's checkpoint
    #: rollback (0 when no state was lost).
    rounds_replayed: int = 0

    @property
    def max_staleness(self) -> int:
        """Largest read lag any partition saw this round (0 = barrier
        semantics; meaningful only when :attr:`version_vector` is set)."""
        if not self.version_vector:
            return 0
        return max(self.iteration - v for v in self.version_vector)


@dataclass
class IterativeResult:
    """Outcome of an iterative partial-synchronization run."""

    state: Any
    global_iters: int
    converged: bool
    sim_time: float
    history: list = field(default_factory=list)

    @property
    def total_local_iters(self) -> int:
        """Sum of local iterations over all partitions and rounds."""
        return int(sum(sum(r.local_iters) for r in self.history))

    @property
    def residuals(self) -> list:
        return [r.residual for r in self.history]


@dataclass
class RoundOutcome:
    """What one backend round hands back to the loop."""

    #: The state after this round's global combine.
    state: Any
    #: Local iterations per partition (summed over inner rounds).
    local_iters: tuple
    #: Bytes shipped through this round's global shuffle (combine
    #: ``extra_bytes`` included).
    shuffle_bytes: int
    #: Per-partition bytes this round wrote through the state store.
    state_partition_bytes: tuple = ()
    #: Oldest neighbour version each partition consumed (async backend).
    version_vector: tuple = ()


# ----------------------------------------------------------------------
# Backend protocol
# ----------------------------------------------------------------------

class IterationBackend(abc.ABC):
    """How one global round executes and synchronizes.

    The loop calls :meth:`bind` once before the first round, then per
    round: the spec's pre-iteration hook, :meth:`run_round`, and
    :meth:`global_converged`.  :meth:`close` runs exactly once when the
    loop finishes (normally or not).
    """

    #: Set by :meth:`bind`; every simulated charge goes through it.
    accountant: RoundAccountant

    def bind(self, config: DriverConfig,
             accountant: "RoundAccountant | None" = None) -> None:
        """Attach the run's configuration and build the accountant.

        A multi-job :class:`~repro.core.session.Session` passes its own
        per-job ``accountant`` (labelled, over the shared cluster) so
        every job's charges stay attributable on one timeline; solo runs
        get a fresh private one.
        """
        self.config = config
        self.accountant = (accountant if accountant is not None
                           else RoundAccountant(self.cluster, config))

    @property
    def cluster(self):
        """The attached :class:`~repro.cluster.SimCluster` (or None)."""
        return None

    @abc.abstractmethod
    def initial_state(self) -> Any:
        """Global state before the first iteration."""

    @abc.abstractmethod
    def on_global_iteration(self, iteration: int, state: Any) -> Any:
        """The spec's pre-iteration hook; may return a replacement state."""

    @abc.abstractmethod
    def run_round(self, iteration: int, state: Any, *,
                  max_local_iters: int) -> RoundOutcome:
        """Execute one global round: local work, global combine, and all
        simulated charging (through :attr:`accountant`)."""

    @abc.abstractmethod
    def global_converged(self, prev_state: Any,
                         curr_state: Any) -> "tuple[bool, float]":
        """Global termination; returns (converged, residual)."""

    def close(self) -> None:
        """Release resources the backend owns (default: nothing)."""


# ----------------------------------------------------------------------
# Record-at-a-time backend (real MapReduce engine)
# ----------------------------------------------------------------------

class EngineBackend(IterationBackend):
    """One global iteration = one job on the real MapReduce engine.

    One engine runtime — and therefore one persistent worker pool — is
    reused across every global iteration, so an iterative run pays pool
    start-up once instead of per phase per round.

    Parameters
    ----------
    spec:
        Application spec (lmap/lreduce/greduce + plumbing).
    runtime:
        Engine runtime; defaults to a serial runtime without a cluster
        (owned by this backend and closed when the loop finishes — a
        caller-supplied runtime is left open for reuse).  Attach a
        runtime with a :class:`~repro.cluster.SimCluster` for simulated
        time.
    num_reducers:
        Reduce tasks per global iteration.
    columnar:
        Route each job through the engine's columnar shuffle fast path
        (typed batches, vectorised routing/grouping, map-side combiner
        — see :mod:`repro.engine.columnar`).  ``None`` (default) opts in
        automatically when the spec supports it; ``False`` forces the
        classic object path — the fallback and the oracle the
        equivalence tests compare against.
    """

    def __init__(self, spec: AsyncMapReduceSpec, *,
                 runtime: "MapReduceRuntime | None" = None,
                 num_reducers: int = 8,
                 columnar: "bool | None" = None) -> None:
        self.spec = spec
        self.owns_runtime = runtime is None
        self.runtime = runtime if runtime is not None else MapReduceRuntime("serial")
        self.num_reducers = num_reducers
        # getattr: duck-typed specs that predate the columnar hooks
        # simply stay on the object path.
        if columnar is None:
            columnar = getattr(spec, "supports_columnar", False)
        elif columnar and not getattr(spec, "supports_columnar", False):
            raise ValueError(
                f"{type(spec).__name__} does not support the columnar path")
        self.columnar = bool(columnar)
        self._greduce = GreduceFunction(spec)
        self._parts = spec.num_partitions()

    @property
    def cluster(self):
        return self.runtime.cluster

    def initial_state(self) -> Any:
        return self.spec.initial_state()

    def on_global_iteration(self, iteration: int, state: Any) -> Any:
        return self.spec.on_global_iteration(iteration, state)

    def global_converged(self, prev_state, curr_state):
        return self.spec.global_converged(prev_state, curr_state)

    def run_round(self, iteration: int, state: Any, *,
                  max_local_iters: int) -> RoundOutcome:
        spec = self.spec
        splits = [
            [(p, spec.partition_input(p, state))] for p in range(self._parts)
        ]
        job = Job(
            map_fn=GmapFunction(spec, max_local_iters,
                                columnar=self.columnar),
            reduce_fn=(spec.columnar_reduce() if self.columnar
                       else self._greduce),
            combine_fn=(spec.columnar_combine if self.columnar else None),
            conf=JobConf(num_reducers=self.num_reducers,
                         name=f"iter{iteration}"),
        )
        # round_index keys the runtime's NodeFaultPlan: scripted deaths
        # fire in their scripted global iteration, at most once — a
        # checkpoint-rollback replay of the same round runs clean.
        res = self.runtime.run(job, splits, accountant=self.accountant,
                               round_index=iteration)
        if res.columnar_output is not None:
            out_bytes = res.columnar_output.nbytes
            new_state = spec.state_from_columnar(res.columnar_output, state)
        else:
            # Reduce tasks measured their output bytes worker-side; the
            # full estimate scan stays as the oracle for results from
            # before that measurement existed.
            out_bytes = res.output_nbytes or _measure_output_bytes(
                [[res.output]])
            new_state = spec.state_from_output(res.output, state)
        # The record-at-a-time path has no per-key partition attribution
        # for the reduce output, so the state it round-trips is spread
        # evenly — the same shape (one entry per partition, aggregate
        # preserved) the block backends report.  The shared accountant
        # tail also fires the non-durable store's periodic checkpoint,
        # exactly when the block path would.
        state_pb = even_split(out_bytes, self._parts)
        self.accountant.charge_state_tail(iteration=iteration,
                                          state_partition_bytes=state_pb,
                                          label=f"iter{iteration}")
        return RoundOutcome(
            state=new_state,
            local_iters=tuple(
                res.counters.get(local_iter_counter(p))
                for p in range(self._parts)
            ),
            shuffle_bytes=res.counters.get(SHUFFLE_BYTES),
            state_partition_bytes=state_pb,
        )

    def close(self) -> None:
        if self.owns_runtime:
            self.runtime.close()


# ----------------------------------------------------------------------
# Vectorised block backend (simulated cluster accounting)
# ----------------------------------------------------------------------

class BlockBackend(IterationBackend):
    """One global iteration = local solves + combine on a :class:`BlockSpec`.

    A round with a budget of one local iteration is the spec's
    :meth:`~BlockSpec.general_round`, every partition in one call;
    any other budget runs ``local_solve`` part by part.

    When a cluster is attached, each round charges: job startup, the map
    phase (gmap task costs from reported per-iteration op counts,
    honouring ``config.eager_schedule``), the shuffle of reported
    boundary bytes, the combine's ``extra_bytes`` shuffle, the reduce
    phase (one task per reduce slot of the cluster), the barrier, the
    inter-iteration state round trip — the **per-partition** update
    bytes through the config's
    :class:`~repro.cluster.statestore.StateStore`, so a tablet-sharded
    online store sees the real skew — and a non-durable store's
    periodic checkpoint, all through the accountant.
    """

    def __init__(self, spec: BlockSpec, *, cluster=None) -> None:
        self.spec = spec
        self._cluster = cluster

    @property
    def cluster(self):
        return self._cluster

    def initial_state(self) -> Any:
        return self.spec.init_state()

    def on_global_iteration(self, iteration: int, state: Any) -> Any:
        return self.spec.on_global_iteration(iteration, state)

    def global_converged(self, prev_state, curr_state):
        return self.spec.global_converged(prev_state, curr_state)

    def run_round(self, iteration: int, state: Any, *,
                  max_local_iters: int) -> RoundOutcome:
        spec = self.spec
        if max_local_iters == 1:
            reports = spec.general_round(state)
        else:
            reports = [
                spec.local_solve(p, state, max_local_iters=max_local_iters)
                for p in range(spec.num_partitions())
            ]
        self.accountant.charge_map_phase(reports, label=f"iter{iteration}")
        return self._finish_round(iteration, state, reports,
                                  tuple(r.local_iters for r in reports))

    def _state_partition_bytes(self, new_state: Any,
                               final_reports: "list[LocalSolveReport]"
                               ) -> tuple:
        """Per-partition bytes this round routes through the state store.

        Specs that measure their real update volume report it per
        partition (``LocalSolveReport.update_nbytes``) — that is where
        frontier skew becomes visible to a tablet-sharded store.  When
        any report omits it, the combined state's total size is split
        evenly, preserving the historical aggregate charge exactly.
        """
        by_part = sorted(final_reports, key=lambda r: r.partition)
        if by_part and all(r.update_nbytes is not None for r in by_part):
            return tuple(int(r.update_nbytes) for r in by_part)
        return even_split(int(self.spec.state_nbytes(new_state)),
                          len(by_part))

    def _finish_round(self, iteration: int, state: Any,
                      final_reports: "list[LocalSolveReport]",
                      local_iters: tuple) -> RoundOutcome:
        """The global synchronization tail every round ends with: the
        reports' shuffle, the global combine, its ``extra_bytes``
        shuffle, reduce, barrier, the per-partition state round trip,
        and the periodic checkpoint.  Shared with the hierarchical
        backend so the two cannot drift apart in what they charge."""
        spec = self.spec
        label = f"iter{iteration}"
        shuffle_total = int(sum(r.shuffle_bytes for r in final_reports))
        self.accountant.charge_shuffle(shuffle_total, label=f"{label}:shuffle")
        new_state, reduce_ops, extra_bytes = spec.global_combine(
            state, final_reports)
        shuffle_total += int(extra_bytes)
        state_pb = self._state_partition_bytes(new_state, final_reports)
        if self.accountant.active:
            self.accountant.charge_global_sync(
                iteration=iteration,
                extra_bytes=int(extra_bytes),
                reduce_ops=reduce_ops,
                state_partition_bytes=state_pb,
                label=label,
            )
        return RoundOutcome(
            state=new_state,
            local_iters=local_iters,
            shuffle_bytes=shuffle_total,
            state_partition_bytes=state_pb,
        )


# ----------------------------------------------------------------------
# Hierarchical backend (§VIII rack level, composing BlockBackend)
# ----------------------------------------------------------------------

class HierarchicalBackend(BlockBackend):
    """Three-level scheme: local / rack / global synchronization.

    Per global iteration: the first inner round of local solves *is* the
    global job's map phase; each additional inner round is a rack-local
    synchronization (cheap: intra-rack network, no job startup) followed
    by fresh solves against the rack-combined state, priced as an
    ordinary map phase.  Racks are the branches of one
    :meth:`~repro.cluster.SimCluster.concurrently` fork, each on its
    share of the job's slots (the fork costs the slowest rack), so rack
    phases see stragglers, deaths and speculation like any other.  The
    single expensive global synchronization then merges the final
    reports — charged by the exact same accountant path as
    :class:`BlockBackend`, so ``inner_rounds=1`` is *identical* to the
    plain eager block driver, charge for charge.

    The scheme requires each partition's updates to own a disjoint slice
    of the state (``BlockSpec.partition_scoped_state``); the backend
    rejects other specs.
    """

    def __init__(self, spec: BlockSpec, racks: "Sequence[Sequence[int]]", *,
                 inner_rounds: int = 2, cluster=None) -> None:
        super().__init__(spec, cluster=cluster)
        if inner_rounds < 1:
            raise ValueError("inner_rounds must be >= 1")
        if not spec.partition_scoped_state:
            raise ValueError(
                "hierarchical synchronization requires a spec with "
                "partition-scoped state (see BlockSpec.partition_scoped_state)"
            )
        self.racks = [list(rack) for rack in racks]
        all_parts = sorted(p for rack in self.racks for p in rack)
        if all_parts != list(range(spec.num_partitions())):
            raise ValueError("racks must cover every partition exactly once")
        self.inner_rounds = inner_rounds

    def run_round(self, iteration: int, state: Any, *,
                  max_local_iters: int) -> RoundOutcome:
        spec, acct = self.spec, self.accountant
        label = f"iter{iteration}"
        total_local = [0] * spec.num_partitions()

        def solve(rack: "list[int]", from_state) -> "list[LocalSolveReport]":
            reports = [
                spec.local_solve(p, from_state,
                                 max_local_iters=max_local_iters)
                for p in rack
            ]
            for r in reports:
                total_local[r.partition] += r.local_iters
            return reports

        # Inner round 1: the global job's map phase over every partition.
        reports_by_rack = [solve(rack, state) for rack in self.racks]
        acct.charge_map_phase([r for rs in reports_by_rack for r in rs],
                              label=label)

        def rack_rounds(i: int) -> None:
            # Inner rounds 2..n of rack i: the rack combine, its
            # intra-rack sync, and the rack's solves as a map phase.
            rack, rack_state = self.racks[i], state
            for _ in range(self.inner_rounds - 1):
                prev = reports_by_rack[i]
                rack_state, _, _ = spec.global_combine(rack_state, prev)
                reports_by_rack[i] = solve(rack, rack_state)
                if acct.active:
                    sync_bytes = sum(r.shuffle_bytes for r in prev)
                    acct.charge_fixed(
                        f"{label}:rack{i}:sync",
                        RACK_STARTUP_SECONDS + sync_bytes / (
                            acct.cluster.cost_model.shuffle_bandwidth_bps
                            * RACK_SHUFFLE_SPEEDUP))
                acct.run_map_phase(
                    [acct.local_solve_seconds(r) for r in reports_by_rack[i]],
                    label=f"{label}:rack{i}:map")

        # Racks run side by side, each on its share of the job's slots.
        branches = [functools.partial(rack_rounds, i)
                    for i in range(len(self.racks))]
        if acct.active:
            acct.cluster.concurrently(branches)
        else:
            for branch in branches:
                branch()

        final_reports = [r for rs in reports_by_rack for r in rs]
        return self._finish_round(iteration, state, final_reports,
                                  tuple(total_local))


# ----------------------------------------------------------------------
# Adaptive synchronization policy
# ----------------------------------------------------------------------

#: The adaptive policy's budget for a run's first round.
INITIAL_BUDGET = 4
#: Budget factor after a budget-limited round.
BUDGET_GROW = 2.0
#: Budget factor after a round whose residual contracted fast.
BUDGET_SHRINK = 0.5
#: A residual ratio below this is a fast contraction.
FAST_CONTRACTION = 0.05


class AdaptiveSyncPolicy:
    """Retunes the per-round local-iteration budget from round feedback.

    The paper fixes ``max_local_iters`` for a whole run; with one loop
    and per-round budgets, the tradeoff can be steered online instead.
    The policy starts shallow (:data:`INITIAL_BUDGET`: cheap early
    rounds, when local solves against far-from-converged remote state
    are mostly wasted) and *grows* the budget by :data:`BUDGET_GROW`
    whenever a round was budget-limited — some partition spent its
    whole budget without reaching local convergence, so the expensive
    global synchronization fired earlier than the partial-sync
    discipline wanted.  When the global residual contracts very fast
    (ratio below :data:`FAST_CONTRACTION`), deep local solves are
    over-solving against stale remote state, and the budget *shrinks*
    by :data:`BUDGET_SHRINK`.  Budgets are always clamped to
    ``[1, config.effective_local_iters]`` (so the general baseline
    stays exactly one local step).

    A policy instance is stateful per run; :class:`IterationLoop` resets
    it at the start of each run and appends the budget actually used
    each round to :attr:`budgets` for inspection.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget all observations (called by the loop per run)."""
        self._budget = INITIAL_BUDGET
        self._prev_residual: "float | None" = None
        #: Budget handed to the backend each round (filled during a run).
        self.budgets: "list[int]" = []

    def budget(self) -> int:
        """The local-iteration budget to use for the next round."""
        return self._budget

    def observe(self, residual: float, *, local_iters: tuple,
                budget: int) -> None:
        """Feed one round's outcome back into the policy."""
        prev = self._prev_residual
        contraction = None
        if (prev is not None and prev > 0 and math.isfinite(prev)
                and math.isfinite(residual)):
            contraction = residual / prev
        # Adjust from the budget actually used (already clamped by the
        # loop), so the internal budget never runs away past the cap and
        # a shrink engages immediately after sustained growth.
        budget_limited = bool(local_iters) and max(local_iters) >= budget
        if contraction is not None and contraction < FAST_CONTRACTION:
            self._budget = max(1, int(budget * BUDGET_SHRINK))
        elif budget_limited:
            self._budget = max(1, math.ceil(budget * BUDGET_GROW))
        else:
            self._budget = budget
        self._prev_residual = residual


# ----------------------------------------------------------------------
# The loop
# ----------------------------------------------------------------------

class IterationLoop:
    """The single outer fixed-point loop every driver runs through.

    Owns the round structure (hook, local work, combine, convergence,
    history) and the round accounting; the backend owns the execution
    substrate and the synchronization discipline.

    The loop is *re-entrant at round granularity*: :meth:`start` binds
    the backend and builds the initial state, each :meth:`step` executes
    exactly one global round, and :meth:`finish` closes the backend and
    assembles the :class:`IterativeResult`.  :meth:`run` composes the
    three for the classic run-to-convergence call, while a multi-job
    :class:`~repro.core.session.Session` interleaves ``step`` calls of
    many loops on one shared cluster clock (see
    :mod:`repro.core.jobsched`).

    Parameters
    ----------
    backend:
        How one global round executes (engine / block / hierarchical).
    config:
        Driver mode and iteration caps.
    sync_policy:
        Optional :class:`AdaptiveSyncPolicy` retuning the local-iteration
        budget per round; ``None`` uses the fixed
        ``config.effective_local_iters`` (the paper's behaviour).
    accountant:
        Optional pre-built :class:`~repro.cluster.accountant.RoundAccountant`
        handed to :meth:`IterationBackend.bind` — how a session gives
        each job its own labelled ledger over the shared cluster.
        ``None`` (solo runs) lets the backend build a private one.
    """

    def __init__(self, backend: IterationBackend, config: DriverConfig, *,
                 sync_policy: "AdaptiveSyncPolicy | None" = None,
                 accountant: "RoundAccountant | None" = None) -> None:
        self.backend = backend
        self.config = config
        self.sync_policy = sync_policy
        self._accountant = accountant
        self._started = False
        self._closed = False
        self._converged = False
        self._iters = 0
        self._busy = 0.0
        self._state: Any = None
        self._history: "list[RoundRecord]" = []
        #: Budget actually handed to the backend each round — a rollback
        #: replays past rounds with the budgets they originally used, so
        #: recovery is bitwise-faithful even under an adaptive policy.
        self._budgets_used: "list[int]" = []
        #: Last durable state snapshot as ``(iteration, state, bytes)``;
        #: ``iteration`` is -1 for the pre-round-0 initial state.  Only
        #: maintained when a fault plan makes a rollback reachable.
        self._checkpoint: "tuple[int, Any, tuple] | None" = None

    def _round_budget(self) -> int:
        if self.sync_policy is None:
            return self.config.effective_local_iters
        budget = max(1, min(int(self.sync_policy.budget()),
                            self.config.effective_local_iters))
        self.sync_policy.budgets.append(budget)
        return budget

    # -- stepwise protocol ------------------------------------------------
    def start(self) -> None:
        """Bind the backend and build the initial state (idempotent)."""
        if self._started:
            return
        self.backend.bind(self.config, self._accountant)
        if self.sync_policy is not None:
            self.sync_policy.reset()
        self._state = self.backend.initial_state()
        if self._faults_possible():
            self._checkpoint = (-1, copy.deepcopy(self._state), ())
        self._started = True

    def _faults_possible(self) -> bool:
        """Whether any layer of this run can lose a worker mid-round
        (an engine runtime with a non-empty fault plan, or a simulated
        cluster with a worker pool) — only then is the per-checkpoint
        state snapshot worth its deepcopy."""
        plan = getattr(getattr(self.backend, "runtime", None),
                       "node_faults", None)
        if plan is not None and not getattr(plan, "is_empty", True):
            return True
        return getattr(self.backend.accountant.cluster, "worker_pool",
                       None) is not None

    @property
    def started(self) -> bool:
        return self._started

    @property
    def finished(self) -> bool:
        """True once converged or the global-iteration cap is reached."""
        return self._started and (self._converged
                                  or self._iters >= self.config.max_global_iters)

    @property
    def global_iters(self) -> int:
        """Global rounds executed so far."""
        return self._iters

    def step(self) -> bool:
        """Execute exactly one global round; returns :attr:`finished`.

        Safe to interleave with other loops' steps on the same simulated
        cluster: the round's charges land between this call's entry and
        exit clock readings, so per-round timing stays attributable no
        matter what other jobs did to the clock in between.
        """
        if not self._started:
            raise RuntimeError("IterationLoop.step() before start()")
        if self.finished:
            raise RuntimeError("IterationLoop.step() after the run finished")
        backend, config, policy = self.backend, self.config, self.sync_policy
        it = self._iters
        hooked = backend.on_global_iteration(it, self._state)
        if hooked is not None:
            self._state = hooked
        budget = self._round_budget()
        self._budgets_used.append(budget)
        acct = backend.accountant
        acct.begin_round(it)
        round_start = acct.clock
        outcome = backend.run_round(it, self._state, max_local_iters=budget)
        if acct.ledger.node_deaths:
            outcome = self._recover(it, outcome)
        done, residual = backend.global_converged(self._state, outcome.state)
        self._iters = it + 1
        self._busy += acct.clock - round_start
        self._history.append(RoundRecord(
            iteration=it,
            residual=residual,
            local_iters=outcome.local_iters,
            sim_seconds=acct.clock - round_start,
            shuffle_bytes=outcome.shuffle_bytes,
            state_partition_bytes=outcome.state_partition_bytes,
            version_vector=outcome.version_vector,
            **acct.round_facts(),
        ))
        if (self._checkpoint is not None and config.checkpoint_every
                and (it + 1) % config.checkpoint_every == 0):
            self._checkpoint = (it, copy.deepcopy(outcome.state),
                                outcome.state_partition_bytes)
        if policy is not None:
            policy.observe(residual, local_iters=outcome.local_iters,
                           budget=budget)
        self._state = outcome.state
        if done:
            self._converged = True
        return self.finished

    def _recover(self, it: int, outcome: RoundOutcome) -> RoundOutcome:
        """Checkpoint rollback after a round lost workers.

        When the inter-round state store is not durable, the tablets a
        dead worker hosted take every round since the last periodic
        durability checkpoint with them (§II's deterministic-replay
        argument, applied to iterate state): re-read the checkpoint from
        the replicated DFS, then replay the lost rounds forward on the
        surviving fleet.  Replay is deterministic — each round re-runs
        with the local-iteration budget it originally used, and fired
        deaths never re-fire — so the recovered round is bitwise
        identical to the failure-free one.  The replayed rounds' charges
        re-accrue through the normal accounting paths; that re-execution
        plus the restore read is exactly the recovery cost a tighter
        ``checkpoint_every`` cadence shrinks.
        """
        backend = self.backend
        acct = backend.accountant
        if (self._checkpoint is None or not acct.active
                or acct.state_store.durable):
            # Nothing simulated was lost: a durable store persists every
            # round, and without a cluster the iterate state lives in
            # driver memory (the engine already replayed lost map
            # outputs inside the round).
            return outcome
        ck_it, ck_state, ck_bytes = self._checkpoint
        acct.charge_state_restore(ck_bytes, label=f"iter{it}:restore")
        replay_start = acct.clock
        state = copy.deepcopy(ck_state)
        for r in range(ck_it + 1, it + 1):
            hooked = backend.on_global_iteration(r, state)
            if hooked is not None:
                state = hooked
            outcome = backend.run_round(
                r, state, max_local_iters=self._budgets_used[r])
            state = outcome.state
        # The replay's re-execution time is recovery time: it re-accrues
        # through the normal charge paths (so the trace stays honest)
        # and is mirrored into the round's ledger here.
        acct.ledger.recovery_seconds += acct.clock - replay_start
        acct.ledger.rounds_replayed += it - ck_it
        return outcome

    def close(self) -> None:
        """Close the backend exactly once (idempotent)."""
        if not self._closed:
            self._closed = True
            self.backend.close()

    def finish(self) -> IterativeResult:
        """Close the backend and assemble the run's result.

        ``sim_time`` is the *busy* time — the simulated seconds this
        run's own rounds advanced the clock.  For a solo run that equals
        the clock delta across the run; under session interleaving it
        excludes other jobs' rounds (their share of the timeline is a
        contention metric on the :class:`~repro.core.jobsched.JobHandle`,
        not part of this job's cost).
        """
        self.close()
        return IterativeResult(
            state=self._state,
            global_iters=self._iters,
            converged=self._converged,
            sim_time=self._busy,
            history=self._history,
        )

    def run(self) -> IterativeResult:
        """Start, step to convergence (or the cap), and finish."""
        self.start()
        try:
            while not self.finished:
                self.step()
        finally:
            self.close()
        return self.finish()
