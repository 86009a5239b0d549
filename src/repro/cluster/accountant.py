"""One audited charging path for every iterative driver and the engine.

Historically each iterative driver (record-at-a-time, vectorised block,
hierarchical) re-derived its own simulated-cluster charging and the
copies drifted — the hierarchical path silently skipped the block path's
periodic durability checkpoint and charged ``extra_bytes`` shuffle
differently.  :class:`RoundAccountant` centralises every charge an
iterative round can incur (job startup, map phase under eager/lockstep
scheduling, shuffle, reduce phase, barrier, state round trip, periodic
checkpoint) so all backends of :mod:`repro.core.loop` — and the
engine's own per-job accounting — flow through one code path and cannot
diverge again.

Inter-round state is charged through a partitioned
:class:`~repro.cluster.statestore.StateStore` (resolved from the
config's ``state_store``, or injected by a session so many jobs contend
on one store).  Every phase and every bandwidth-bound charge — shuffle,
DFS round trip, state round trip, checkpoint — runs on the cluster's
current :attr:`~repro.cluster.SimCluster.share`, so the branches of a
:meth:`~repro.cluster.SimCluster.concurrently` fork (a fair-share
session's jobs, a hierarchical round's racks) each see their slice of
the slots, the network and the store's throughput.

Every method is a no-op returning ``0.0`` when no cluster is attached,
so callers never branch on ``cluster is None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # avoid a runtime repro.cluster <-> repro.core cycle
    from repro.cluster.cluster import SimCluster
    from repro.cluster.statestore import StateStore
    from repro.core.config import DriverConfig

__all__ = ["RoundAccountant", "RoundLedger"]


@dataclass
class RoundLedger:
    """One global round's speculation, failure and recovery facts,
    written as each charge happens; the fields are
    :class:`~repro.core.loop.RoundRecord`'s, by the same names."""

    #: Speculative backup copies the round's phases launched.
    backups: int = 0
    #: Backups that finished before their primary.
    backups_won: int = 0
    #: Duplicate seconds speculation burned (the discarded copies).
    wasted_seconds: float = 0.0
    #: Worker deaths that fired during the round.
    node_deaths: int = 0
    #: Completed map outputs the deaths invalidated.
    lost_map_outputs: int = 0
    #: Detection, re-execution, checkpoint restore and replay seconds.
    recovery_seconds: float = 0.0
    #: Global iterations a checkpoint rollback re-executed.
    rounds_replayed: int = 0


class RoundAccountant:
    """Charges one iterative driver's simulated-cluster costs.

    Parameters
    ----------
    cluster:
        The simulated cluster, or ``None`` to make every charge a no-op
        (pure-compute runs still produce correct iterates, just no time).
    config:
        The :class:`~repro.core.config.DriverConfig` of the run.  Only
        needed for the driver-level composites (:meth:`charge_map_phase`,
        :meth:`charge_global_sync`); the engine uses the accountant with
        ``config=None`` for its per-job primitive charges.
    job:
        Optional job name.  When several jobs share one cluster (see
        :mod:`repro.core.session`) each runs through its *own*
        accountant over the shared clock: the name prefixes every trace
        label (``"jobname:iter3:shuffle"``), so per-job cost attribution
        falls out of the shared timeline.

    Attributes
    ----------
    ledger:
        The open round's :class:`RoundLedger`, replaced by
        :meth:`begin_round`.  Charges made outside any round (a
        standalone engine job) land in the one built with the
        accountant.
    """

    def __init__(self, cluster: "SimCluster | None",
                 config: "DriverConfig | None" = None, *,
                 job: "str | None" = None,
                 state_store: "StateStore | None" = None) -> None:
        self.cluster = cluster
        self.config = config
        self.job = job
        self._state_store = state_store
        self.ledger = RoundLedger()
        self._splits_at_open = 0

    @property
    def state_store(self) -> "StateStore":
        """The partitioned store inter-round state charges go through.

        Sessions inject a shared instance at construction (multi-job
        contention on one set of tablets); otherwise the store is
        resolved lazily from ``config.state_store``.  Either way the
        store keeps no cluster: each charge passes this accountant's
        ``cluster.cost_model``.
        """
        if self._state_store is None:
            from repro.cluster.statestore import resolve_state_store

            if self.config is None:
                raise ValueError(
                    "state charging needs a DriverConfig (or an injected "
                    "StateStore)")
            self._state_store = resolve_state_store(self.config.state_store)
        return self._state_store

    def _split_count(self) -> int:
        """Tablet splits the attached state store has made (0 when the
        store was never touched or has no mutable tablet map)."""
        return len(getattr(self._state_store, "split_events", ()))

    def begin_round(self, iteration: int) -> None:
        """Open one global iteration: a fresh :attr:`ledger`, and the
        cluster's worker pool armed.

        The pool replaces workers lost in earlier rounds and converts
        the fault plan's scripted deaths for this round into absolute
        death clocks.  A checkpoint-rollback *replay* of a round must
        not call this — replays run on the surviving fleet, and their
        charges belong to the round that rolled back.
        """
        self.ledger = RoundLedger()
        self._splits_at_open = self._split_count()
        if self.cluster is None:
            return
        pool = getattr(self.cluster, "worker_pool", None)
        if pool is not None:
            pool.begin_round(iteration, self.cluster.clock)

    def round_facts(self) -> dict:
        """The open round's ledger as :class:`~repro.core.loop.RoundRecord`
        fields, with the tablet splits the state store made since
        :meth:`begin_round`.  A session runs one job's round at a time,
        so a store its jobs share still splits per job."""
        return {**vars(self.ledger),
                "tablet_splits": self._split_count() - self._splits_at_open}

    def _label(self, label: str) -> str:
        return f"{self.job}:{label}" if self.job else label

    @property
    def active(self) -> bool:
        """Whether charges actually advance a simulated clock."""
        return self.cluster is not None

    @property
    def clock(self) -> float:
        """Current simulated time (0.0 without a cluster)."""
        return self.cluster.clock if self.cluster is not None else 0.0

    def _config(self) -> "DriverConfig":
        if self.config is None:
            raise ValueError("this RoundAccountant method needs a DriverConfig")
        return self.config

    # ------------------------------------------------------------------
    # Primitive charges (thin, engine-shared)
    # ------------------------------------------------------------------
    def charge_job_startup(self, *, label: str = "job-startup") -> float:
        if self.cluster is None:
            return 0.0
        return self.cluster.charge_job_startup(label=self._label(label))

    def charge_shuffle(self, nbytes: float, *, label: str = "shuffle") -> float:
        if self.cluster is None:
            return 0.0
        return self.cluster.charge_shuffle(nbytes, label=self._label(label))

    def charge_barrier(self, *, label: str = "barrier") -> float:
        if self.cluster is None:
            return 0.0
        return self.cluster.charge_barrier(label=self._label(label))

    def charge_dfs_roundtrip(self, nbytes: float, *, label: str = "dfs") -> float:
        if self.cluster is None:
            return 0.0
        return self.cluster.charge_dfs_roundtrip(nbytes,
                                                 label=self._label(label))

    def _speculate(self) -> bool:
        """Whether every scheduled phase speculates
        (``DriverConfig.speculate``; ``False`` when configless)."""
        return self.config is not None and self.config.speculate

    def _phase_stats(self, result) -> float:
        ledger = self.ledger
        ledger.backups += result.backups
        ledger.backups_won += result.backups_won
        ledger.wasted_seconds += result.wasted_seconds
        ledger.node_deaths += result.node_deaths
        ledger.lost_map_outputs += result.lost_map_outputs
        ledger.recovery_seconds += result.recovery_seconds
        return result.makespan

    def run_map_phase(self, task_costs: Sequence[float], *, label: str) -> float:
        """Schedule map tasks; returns the phase makespan."""
        if self.cluster is None:
            return 0.0
        return self._phase_stats(self.cluster.run_map_phase(
            task_costs, label=self._label(label), speculate=self._speculate()))

    def run_reduce_phase(self, task_costs: Sequence[float], *, label: str) -> float:
        if self.cluster is None:
            return 0.0
        return self._phase_stats(self.cluster.run_reduce_phase(
            task_costs, label=self._label(label), speculate=self._speculate()))

    def charge_fixed(self, label: str, seconds: float) -> float:
        if self.cluster is None:
            return 0.0
        return self.cluster.charge_fixed(self._label(label), seconds)

    def charge_recovery(self, seconds: float, *, node_deaths: int = 0,
                        lost_map_outputs: int = 0,
                        label: str = "recovery") -> float:
        """Charge an engine-observed recovery timeline (heartbeat
        detection + re-executing the dead domain's lost work) and record
        the correlated-failure stats.

        The sim path never calls this — its scheduler prices deaths
        inside the phase makespan and reports them via PhaseResult; the
        real engine's wall clock is meaningless in simulated seconds, so
        its runtime converts lost op counts into this explicit charge.
        Stats are recorded even without a cluster (a cluster-less
        engine run still surfaces ``lost_map_outputs``).
        """
        self.ledger.node_deaths += node_deaths
        self.ledger.lost_map_outputs += lost_map_outputs
        if self.cluster is None:
            return 0.0
        t = self.charge_fixed(label, seconds)
        self.ledger.recovery_seconds += t
        return t

    def charge_state_restore(self, partition_bytes: Sequence[float], *,
                             label: str = "restore") -> float:
        """Charge reloading state from the last durability checkpoint
        (a full replicated-DFS read), the first step of a rollback."""
        if self.cluster is None:
            return 0.0
        cm = self.cluster.cost_model
        t = cm.dfs_read_seconds(float(sum(partition_bytes)),
                                share=self.cluster.share)
        t = self.charge_fixed(label, t)
        self.ledger.recovery_seconds += t
        return t

    def charge_state_round(self, partition_bytes: Sequence[float], *,
                           label: str = "state") -> float:
        """Charge one inter-round state round trip through the attached
        :class:`~repro.cluster.statestore.StateStore`.

        ``partition_bytes`` is the per-partition byte vector the round
        writes (and the next round reads back); the store decides what
        that costs — in aggregate for the DFS file, max-over-tablets
        for the online store — scaled to the cluster's current share.
        """
        if self.cluster is None:
            return 0.0
        t = self.state_store.round_trip(
            partition_bytes, cost_model=self.cluster.cost_model,
            share=self.cluster.share)
        return self.cluster.charge_fixed(self._label(label), t)

    def charge_due_checkpoint(self, partition_bytes: Sequence[float], *,
                              iteration: int, label: str) -> float:
        """Charge the periodic durability checkpoint (a full replicated
        DFS write of the state) if round ``iteration`` is due one: the
        store is not durable and the round closes a
        ``config.checkpoint_every`` period.  Every backend's one rule."""
        if self.cluster is None:
            return 0.0
        config = self._config()
        if (self.state_store.durable or not config.checkpoint_every
                or (iteration + 1) % config.checkpoint_every):
            return 0.0
        t = self.state_store.checkpoint(
            partition_bytes, cost_model=self.cluster.cost_model,
            share=self.cluster.share)
        return self.cluster.charge_fixed(self._label(label), t)

    def charge_state_tail(self, *, iteration: int,
                          state_partition_bytes: Sequence[float],
                          label: str) -> float:
        """The inter-round state tail every backend's round ends with:
        the state round trip plus, for non-durable stores, the periodic
        durability checkpoint.  One code path shared by the block
        composite (:meth:`charge_global_sync`) and the engine backend,
        so the two cannot drift in when the checkpoint fires.
        """
        if self.cluster is None:
            return 0.0
        self._config()  # fail before charging
        start = self.cluster.clock
        self.charge_state_round(state_partition_bytes, label=f"{label}:state")
        self.charge_due_checkpoint(state_partition_bytes, iteration=iteration,
                                   label=f"{label}:checkpoint")
        return self.cluster.clock - start

    # ------------------------------------------------------------------
    # No-barrier charges (AsyncBackend)
    # ------------------------------------------------------------------
    def state_publish_seconds(self, partition: int, nbytes: float, *,
                              version: int, num_partitions: int) -> float:
        """Price one partition's continuous publish of its state slice.

        Pricing only — the async backend composes per-partition
        timelines itself and advances the shared clock once per round
        by the furthest timeline's reach (:meth:`charge_fixed`), so this
        must not touch the clock.  Store-side stats (tablet bytes, version vector) do
        accumulate.
        """
        if self.cluster is None:
            return 0.0
        return self.state_store.publish(
            partition, nbytes, version=version,
            num_partitions=num_partitions, share=self.cluster.share)

    def state_consume_seconds(self, partition_bytes: Sequence[float]) -> float:
        """Price one partition's read of neighbour slices.  Pricing only,
        like :meth:`state_publish_seconds`."""
        if self.cluster is None:
            return 0.0
        return self.state_store.consume(partition_bytes,
                                        share=self.cluster.share)

    def local_solve_seconds(self, report) -> float:
        """Compute seconds of one partition's whole local solve (every
        local iteration), priced exactly like the barrier path's map
        task so ``staleness=0`` reproduces its charges."""
        if self.cluster is None:
            return 0.0
        return self.gmap_task_cost(report, 0, report.local_iters)

    # ------------------------------------------------------------------
    # Driver-level composites (need a DriverConfig)
    # ------------------------------------------------------------------
    def gmap_task_cost(self, report, lo: int = 0, hi: "int | None" = None) -> float:
        """Compute seconds of one gmap's local iterations ``[lo, hi)``.

        The *first* local iteration of a gmap is the actual map
        invocation over freshly-read input and is charged at the
        per-record map rate; subsequent local iterations run over the
        in-memory hashtable (§V-A) and are charged at the cheaper local
        rate.
        """
        cm = self.cluster.cost_model
        ops = report.per_iter_ops
        hi = len(ops) if hi is None else min(hi, len(ops))
        total = 0.0
        for l in range(lo, hi):
            total += (cm.map_compute_seconds(ops[l]) if l == 0
                      else cm.local_compute_seconds(ops[l]))
        return total

    def charge_map_phase(self, reports, *, label: str) -> float:
        """Charge one global iteration's job startup + gmap work.

        Eager scheduling (the paper's setting) makes each gmap a single
        schedulable task whose cost is the *sum* of its local iterations
        — partitions proceed independently, smoothing load imbalance.
        With eager scheduling off, local iterations run in lockstep:
        local round ``l`` across all partitions is one scheduled phase
        (dispatch paid per partition per round), and rounds are summed —
        strictly slower, as the ablation bench demonstrates.
        """
        if self.cluster is None:
            return 0.0
        config = self._config()
        start = self.cluster.clock
        self.charge_job_startup(label=f"{label}:startup")
        if config.eager_schedule or config.mode == "general":
            costs = [self.gmap_task_cost(r, 0, r.local_iters) for r in reports]
            self.run_map_phase(costs, label=f"{label}:map")
            return self.cluster.clock - start
        max_rounds = max((r.local_iters for r in reports), default=0)
        for l in range(max_rounds):
            costs = [self.gmap_task_cost(r, l, l + 1)
                     for r in reports if l < r.local_iters]
            self.run_map_phase(costs, label=f"{label}:map.l{l}")
        return self.cluster.clock - start

    def charge_global_sync(self, *, iteration: int, extra_bytes: int,
                           reduce_ops: float,
                           state_partition_bytes: Sequence[float],
                           label: str) -> float:
        """Charge everything after the global combine, in the audited
        order: the combine's own ``extra_bytes`` shuffle, the reduce
        phase (``reduce_ops`` split evenly over one task per reduce slot
        of the cluster), the barrier, the inter-iteration state round
        trip (per-partition bytes through the attached
        :class:`~repro.cluster.statestore.StateStore`), and — for
        non-durable stores — the periodic durability checkpoint
        (§VIII's fault-tolerance caveat: a full replicated DFS write of
        the state every ``config.checkpoint_every`` iterations).
        """
        if self.cluster is None:
            return 0.0
        self._config()  # composites need a DriverConfig; fail before charging
        start = self.cluster.clock
        if extra_bytes:
            self.charge_shuffle(int(extra_bytes), label=f"{label}:shuffle+")
        r_tasks = self.cluster.total_reduce_slots
        per_task = self.cluster.cost_model.reduce_compute_seconds(reduce_ops) / r_tasks
        self.run_reduce_phase([per_task] * r_tasks, label=f"{label}:reduce")
        self.charge_barrier(label=f"{label}:barrier")
        self.charge_state_tail(iteration=iteration,
                               state_partition_bytes=state_partition_bytes,
                               label=label)
        return self.cluster.clock - start
