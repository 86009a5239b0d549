"""The simulated cluster: slots, list scheduling, and phase accounting.

:class:`SimCluster` turns a bag of task costs (seconds of compute, as
measured by the engine or the iterative driver) into a *makespan* by
greedy list scheduling onto the nodes' slots — longest task first onto
the earliest-available slot, which is the classic LPT heuristic and a
good stand-in for Hadoop's heartbeat-driven greedy assignment.  Each
scheduled task becomes a trace event, so utilization and per-phase
breakdowns are available afterwards.

The simulated *clock* advances phase by phase; a global synchronization
(shuffle + barrier + DFS round trip) advances it by the cost-model
charges.  This is where the paper's central asymmetry lives: local
synchronizations inside a gmap never touch the cluster clock beyond
their compute time, while global synchronizations pay the full
job-startup + shuffle + barrier toll.

Work that runs side by side — the jobs of a fair-share session step,
the racks of a hierarchical round — forks and joins through
:meth:`SimCluster.concurrently`, which gives each branch its share of
the slots and bandwidth.  This module is the only writer of the clock.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.cluster.costmodel import CostModel, EC2_DEFAULTS, ONLINE_STORE_MODEL
from repro.cluster.node import SimNode, ec2_nodes
from repro.cluster.trace import Event, Trace

__all__ = ["PhaseResult", "SimCluster", "SLOWDOWN_THRESHOLD", "late_threshold"]


#: LATE's cut: a task is late once its (projected) completion exceeds
#: this many times the phase's median completion (Zaharia et al., OSDI
#: 2008).  The simulator's backups and the engine's race read it alike.
SLOWDOWN_THRESHOLD = 1.5


def late_threshold(values: Sequence[float]) -> float:
    """The LATE cut-off: :data:`SLOWDOWN_THRESHOLD` x the median of
    ``values`` (the upper median of an even count); 0.0 when empty."""
    vals = sorted(float(v) for v in values)
    if not vals:
        return 0.0
    return SLOWDOWN_THRESHOLD * vals[len(vals) // 2]


@dataclass(frozen=True)
class PhaseResult:
    """Outcome of scheduling one phase onto the cluster."""

    makespan: float
    #: Speculative backup attempts launched for this phase.
    backups: int = 0
    #: Backups that finished before their primary (the wins).
    backups_won: int = 0
    #: Seconds of duplicate work thrown away (every losing attempt).
    wasted_seconds: float = 0.0
    #: Correlated failures that fired during this phase.
    node_deaths: int = 0
    #: Completed map outputs orphaned by a death (re-executed).
    lost_map_outputs: int = 0
    #: Death-to-last-rerun span: detection latency plus re-execution.
    recovery_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.makespan < 0:
            raise ValueError("negative time in PhaseResult")


class SimCluster:
    """A simulated Hadoop cluster with explicit time accounting.

    Parameters
    ----------
    nodes:
        Machines; defaults to the Table I testbed (8 EC2 XL instances).
    cost_model:
        Constants for overhead charges; defaults to EC2-like values.
    stragglers:
        Optional straggler injection (duck-typed
        :class:`~repro.engine.StragglerPlan`): per-node slowdown
        multipliers applied to every scheduled task, so phase charges
        reflect per-node slowdowns instead of uniform node speed.  Every slowed node id must be a
        node of this cluster.
    node_faults:
        Optional correlated-failure injection (duck-typed
        :class:`~repro.engine.NodeFaultPlan`).  Creates a
        :class:`~repro.cluster.WorkerPool` whose scripted deaths the
        phase scheduler plays out mid-phase: dead slots disappear, the
        attempts running on them are truncated at the death clock,
        completed map outputs on the domain are invalidated, and the
        lost work is re-queued on the survivors no earlier than the
        heartbeat-priced detection point.  The plan's node ids
        (``range(num_nodes)``) must be exactly this cluster's.

    Attributes
    ----------
    clock:
        Current simulated time in seconds.  Phases and charges advance
        it; only this class writes it.
    trace:
        Full event log of everything scheduled so far.
    """

    def __init__(self, nodes: Sequence[SimNode] | None = None,
                 cost_model: CostModel = EC2_DEFAULTS,
                 stragglers=None, node_faults=None) -> None:
        from repro.cluster.workerpool import WorkerPool

        self.nodes: list[SimNode] = list(nodes) if nodes is not None else ec2_nodes()
        if not self.nodes:
            raise ValueError("cluster needs at least one node")
        node_ids = {n.node_id for n in self.nodes}
        if (node_faults is not None
                and set(range(node_faults.num_nodes)) != node_ids):
            raise ValueError(
                f"node_faults covers nodes 0..{node_faults.num_nodes - 1} "
                f"but the cluster's node ids are {sorted(node_ids)}")
        unknown = (sorted(set(stragglers.node_slowdown) - node_ids)
                   if stragglers is not None else [])
        if unknown:
            raise ValueError(
                f"stragglers slow nodes {unknown} that the cluster lacks "
                f"(node ids {sorted(node_ids)})")
        self.cost_model = cost_model
        self.stragglers = stragglers
        self.node_faults = node_faults
        self.worker_pool: "WorkerPool | None" = (
            WorkerPool(self.nodes, node_faults)
            if node_faults is not None else None)
        self.clock: float = 0.0
        self._share = 1.0
        self.trace = Trace()

    # ------------------------------------------------------------------
    @property
    def total_map_slots(self) -> int:
        return sum(n.map_slots for n in self.nodes)

    @property
    def total_reduce_slots(self) -> int:
        return sum(n.reduce_slots for n in self.nodes)

    # ------------------------------------------------------------------
    # Concurrent work
    # ------------------------------------------------------------------
    @property
    def share(self) -> float:
        """Fraction of the slots and bandwidth the running work holds:
        1.0 outside :meth:`concurrently`, the branch's share inside."""
        return self._share

    def concurrently(self, branches: "Sequence[Callable[[], object]]") -> None:
        """Run zero-argument ``branches`` side by side (fork-join).

        Each branch starts at the current clock and holds ``1/k`` of the
        current :attr:`share` (nested forks multiply); every phase and
        bandwidth-bound charge inside it runs on that share.  Afterwards
        the clock is ``start + max(d_i)``, ``d_i`` being how far branch
        ``i`` moved it: the fork costs its slowest branch.  The share is
        restored even when a branch raises.

        Branches run one after another on the same slot prefix, so they
        never contend for a slot, and a death fired in one is seen by
        the branches after it.
        """
        start, outer = self.clock, self._share
        self._share = outer / max(1, len(branches))
        durations = []
        try:
            for branch in branches:
                self.clock = start
                branch()
                durations.append(self.clock - start)
        finally:
            self._share = outer
        if durations:
            self.clock = start + max(durations)

    # ------------------------------------------------------------------
    # Phase scheduling
    # ------------------------------------------------------------------
    def run_map_phase(self, task_costs: Sequence[float], *,
                      label: str = "map",
                      speculate: bool = False) -> PhaseResult:
        """Schedule map tasks (compute seconds each) onto map slots.

        The phase runs on :attr:`share` of the cluster's slots (at least
        one): inside :meth:`concurrently`, a branch holds only its part
        while the other branches run on the rest.  ``speculate=True``
        launches LATE-style backup attempts for tasks whose projected
        completion runs past :func:`late_threshold` of the phase.
        """
        return self._run_phase(task_costs, kind="map", label=label,
                               speculate=speculate)

    def run_reduce_phase(self, task_costs: Sequence[float], *,
                         label: str = "reduce",
                         speculate: bool = False) -> PhaseResult:
        """Schedule reduce tasks onto reduce slots."""
        return self._run_phase(task_costs, kind="reduce", label=label,
                               speculate=speculate)

    def _slots(self, kind: str) -> list[tuple[int, int, float]]:
        """(node_id, slot_index, speed) for every slot of the given kind."""
        out: list[tuple[int, int, float]] = []
        for node in self.nodes:
            count = node.map_slots if kind == "map" else node.reduce_slots
            for s in range(count):
                out.append((node.node_id, s, node.speed))
        return out

    def _effective_speed(self, node_id: int, speed: float) -> float:
        """Slot speed after the straggler plan's per-node slowdown."""
        if self.stragglers is None:
            return speed
        return speed / self.stragglers.node_factor(node_id)

    def _run_phase(self, task_costs: Sequence[float], *, kind: str,
                   label: str, speculate: bool) -> PhaseResult:
        costs = [float(c) for c in task_costs]
        if any(c < 0 for c in costs):
            raise ValueError("task costs must be >= 0")
        slots = self._slots(kind)
        if not slots:
            raise ValueError(f"cluster has no {kind} slots")
        pool = self.worker_pool
        deaths: "dict[int, float]" = {}
        if pool is not None:
            # Nodes that died in an earlier phase of this round offer no
            # slots; nodes with a pending scripted death offer theirs
            # only until the death clock.
            alive = pool.alive_nodes
            slots = [s for s in slots if s[0] in alive]
            if not slots:
                raise RuntimeError(
                    "every node is dead; the job cannot make progress")
            deaths = pool.pending_deaths()
        if self._share < 1.0:
            # Every node's first slot before any node's second, so a
            # share spans the racks instead of taking rack 0's prefix.
            slots = sorted(slots, key=lambda s: (s[1], s[0]))
            slots = slots[:max(1, round(len(slots) * self._share))]
        dispatch = self.cost_model.task_dispatch_seconds
        start_clock = self.clock
        if not costs:
            return PhaseResult(makespan=0.0)

        # LPT greedy: longest task first, onto the slot that can finish it
        # earliest (accounts for heterogeneous node speeds, including the
        # straggler plan's per-node slowdowns).
        order = sorted(range(len(costs)), key=lambda i: -costs[i])
        # Heap of (available_time, slot_idx, node_id, effective_speed):
        # the slot index outranks the node id so ties at equal
        # availability spread one task per node (a heartbeat scheduler's
        # wave) instead of stacking the first node's slots.
        heap: list[tuple[float, int, int, float]] = [
            (start_clock, sidx, nid, self._effective_speed(nid, speed))
            for nid, sidx, speed in slots
        ]
        heapq.heapify(heap)
        completion: list[float] = [start_clock] * len(costs)
        durations: list[float] = [0.0] * len(costs)
        lost: "list[int]" = []       # in-flight attempts a death truncated
        doomed_done: "list[int]" = []  # completed on a node that later dies
        killer: "dict[int, int]" = {}  # task -> the dying node it ran on
        for i in order:
            avail, sidx, nid, speed = heapq.heappop(heap)
            # Slots already past their node's death clock are gone for
            # good (the scheduler stops hearing the node's heartbeat).
            while nid in deaths and avail >= deaths[nid]:
                if not heap:
                    raise RuntimeError(
                        "every slot died mid-phase; nothing can finish "
                        f"{label}")
                avail, sidx, nid, speed = heapq.heappop(heap)
            dur = dispatch + costs[i] / speed
            end = avail + dur
            death_clock = deaths.get(nid)
            if death_clock is not None and end > death_clock:
                # The attempt dies with its machine, mid-flight: the
                # trace keeps the truncated attempt, the slot is never
                # returned, and the task re-runs in the recovery pass.
                self.trace.add(Event(phase=label, label=f"{label}:{i}:killed",
                                     node_id=nid, slot=sidx, start=avail,
                                     end=death_clock))
                lost.append(i)
                killer[i] = nid
                continue
            self.trace.add(Event(phase=label, label=f"{label}:{i}", node_id=nid,
                                 slot=sidx, start=avail, end=end))
            completion[i] = end
            durations[i] = dur
            heapq.heappush(heap, (end, sidx, nid, speed))
            if death_clock is not None:
                # Completed before the death — but a map output lives on
                # its node's local disk until shuffled, so it is lost if
                # the death lands inside this phase.
                killer[i] = nid
                if kind == "map":
                    doomed_done.append(i)

        # A death fires this phase if it truncated an attempt or its
        # clock falls inside the phase window; later deaths stay pending
        # (e.g. a map-round death scripted past the map phase's end).
        phase_end = max(completion)
        killed_nodes = {killer[i] for i in lost}
        fired = {n: d for n, d in deaths.items()
                 if n in killed_nodes or d <= phase_end}

        lost_outputs = 0
        recovery = 0.0
        if fired:
            assert pool is not None
            for n, d in fired.items():
                pool.fire(n, d)
            doomed_fired = [i for i in doomed_done if killer[i] in fired]
            lost_outputs = len(doomed_fired)
            # Recovery pass: re-queue the lost work on the survivors.
            # Nothing restarts before the master *detects* the death —
            # one heartbeat interval of silence after the death clock.
            rerun = lost + doomed_fired
            survivors = [e for e in heap if e[2] not in fired]
            if rerun and not survivors:
                raise RuntimeError(
                    f"no surviving slots to re-run {len(rerun)} lost "
                    f"{kind} tasks")
            heapq.heapify(survivors)
            first_death = min(fired.values())
            last_rerun = first_death
            for i in sorted(rerun, key=lambda i: -costs[i]):
                avail, sidx, nid, speed = heapq.heappop(survivors)
                restart = max(avail, pool.detection_clock(fired[killer[i]]))
                end = restart + dispatch + costs[i] / speed
                self.trace.add(Event(phase=label, label=f"{label}:{i}:replay",
                                     node_id=nid, slot=sidx, start=restart,
                                     end=end))
                completion[i] = end
                heapq.heappush(survivors, (end, sidx, nid, speed))
                last_rerun = max(last_rerun, end)
            recovery = last_rerun - first_death

        backups = backups_won = 0
        wasted = 0.0
        # LATE projections assume the primary schedule survives; a fired
        # death already rewrote it, so the two mechanisms compose across
        # rounds (speculate in healthy rounds) rather than within one.
        if speculate and len(costs) > 1 and not fired:
            backups, backups_won, wasted = self._speculate(
                costs, completion, durations, kind=kind, label=label,
                slots=slots, order=order, start_clock=start_clock)
        makespan = max(completion) - start_clock
        self.clock = start_clock + makespan
        return PhaseResult(makespan=makespan,
                           backups=backups, backups_won=backups_won,
                           wasted_seconds=wasted,
                           node_deaths=len(fired),
                           lost_map_outputs=lost_outputs,
                           recovery_seconds=recovery)

    def _speculate(self, costs: "list[float]", completion: "list[float]",
                   durations: "list[float]", *,
                   kind: str, label: str, slots, order,
                   start_clock: float) -> "tuple[int, int, float]":
        """Launch backup attempts for late tasks; mutates ``completion``
        to first-result-wins and returns (backups, wins, wasted seconds).
        """
        cut = late_threshold([c - start_clock for c in completion])
        threshold = start_clock + cut
        # LATE watches progress rates continuously, so a task projected
        # past the cut is *detected* as soon as the phase estimate
        # stabilises — one typical task time into the phase — not only
        # after the whole cut has elapsed.
        detect = start_clock + cut / SLOWDOWN_THRESHOLD
        late = [i for i, c in enumerate(completion) if c > threshold]
        if not late:
            return 0, 0, 0.0
        # Rebuild slot availability from the primary schedule minus the
        # late tasks' occupancy: replay the non-late load in LPT order,
        # then back each late task up on the slot that finishes it
        # earliest — but no earlier than the moment it was *detected*
        # late, as in Hadoop's speculative execution.
        dispatch = self.cost_model.task_dispatch_seconds
        heap: list[tuple[float, int, int, float]] = [
            (start_clock, sidx, nid, self._effective_speed(nid, speed))
            for nid, sidx, speed in slots
        ]
        heapq.heapify(heap)
        late_set = set(late)
        for i in order:
            if i in late_set:
                continue
            avail, sidx, nid, speed = heapq.heappop(heap)
            end = avail + dispatch + costs[i] / speed
            heapq.heappush(heap, (end, sidx, nid, speed))
        backups = backups_won = 0
        wasted = 0.0
        # Backup placement minimises *finish* time, not queue time: the
        # earliest-available slot is usually the idle straggler that made
        # the task late in the first place — LATE explicitly re-runs the
        # tail on fast nodes, accepting a queue wait to finish sooner.
        free: "list[list]" = [list(entry) for entry in heap]
        for i in sorted(late, key=lambda i: -costs[i]):
            best = min(free, key=lambda e: max(e[0], threshold)
                       + dispatch + costs[i] / e[3])
            avail, sidx, nid, speed = best
            bstart = max(avail, detect)
            bend = bstart + dispatch + costs[i] / speed
            self.trace.add(Event(phase=label, label=f"{label}:{i}:backup",
                                 node_id=nid, slot=sidx, start=bstart,
                                 end=bend))
            backups += 1
            if bend < completion[i]:
                backups_won += 1
                wasted += durations[i]  # primary's work discarded
                completion[i] = bend
            else:
                wasted += bend - bstart  # backup discarded
            best[0] = bend
        return backups, backups_won, wasted

    # ------------------------------------------------------------------
    # Global synchronization accounting
    # ------------------------------------------------------------------
    def charge_job_startup(self, *, label: str = "job-startup") -> float:
        """Charge one MapReduce job submission/teardown; returns seconds."""
        t = self.cost_model.job_startup_seconds
        self._charge(label, t)
        return t

    def charge_shuffle(self, nbytes: float, *, label: str = "shuffle") -> float:
        """Charge moving ``nbytes`` of intermediate data; returns seconds.

        The transfer runs at :attr:`share` of the aggregate bandwidth:
        concurrent branches shuffle side by side, each at its slice.
        """
        t = self.cost_model.shuffle_seconds(nbytes, share=self._share)
        self._charge(label, t)
        return t

    def charge_overlapped_shuffle(self, nbytes: float, *,
                                  overlap_seconds: float,
                                  label: str = "shuffle") -> float:
        """Charge a shuffle whose transfer overlapped a concurrent phase.

        Streaming (eager reduce-side) shuffles copy map output while the
        map phase is still running (§V-B.2), so only the transfer time
        in excess of ``overlap_seconds`` extends the critical path; a
        fully-hidden transfer advances the clock by nothing.  Returns
        the residual seconds actually charged.

        No iterative backend or engine job charges through this method.
        It stays because ``perfbench/probes.py`` looks it up by name on
        this class when ``perfbench`` is imported, so deleting it would
        fail that import.
        """
        if overlap_seconds < 0:
            raise ValueError("overlap_seconds must be >= 0")
        t = self.cost_model.shuffle_seconds(nbytes, share=self._share)
        residual = max(0.0, t - overlap_seconds)
        self._charge(label, residual)
        return residual

    def charge_barrier(self, *, label: str = "barrier") -> float:
        """Charge one global synchronization barrier; returns seconds."""
        t = self.cost_model.barrier_seconds
        self._charge(label, t)
        return t

    def charge_dfs_roundtrip(self, nbytes: float, *, label: str = "dfs") -> float:
        """Charge writing results to the DFS and reading them back
        (§VIII), at :attr:`share` of the DFS bandwidth."""
        t = (self.cost_model.dfs_write_seconds(nbytes, share=self._share)
             + self.cost_model.dfs_read_seconds(nbytes, share=self._share))
        self._charge(label, t)
        return t

    def charge_state_roundtrip(self, nbytes: float, *, store: str = "dfs",
                               label: str = "state") -> float:
        """Charge one inter-iteration state round trip — legacy scalar
        path.

        ``store="dfs"`` is Hadoop's behaviour (reduce output written to
        the replicated DFS, re-read by the next maps); ``store="online"``
        uses the Bigtable-like online store of §VIII's future-work
        discussion.  Iterative drivers no longer call this: their
        accountant routes **per-partition** state bytes through a
        :class:`~repro.cluster.statestore.StateStore`, which reproduces
        these exact numbers for the equivalent backend (DFS, or a
        single-tablet online store) and models tablet skew beyond it.
        """
        if store == "dfs":
            return self.charge_dfs_roundtrip(nbytes, label=label)
        if store == "online":
            t = ONLINE_STORE_MODEL.roundtrip_seconds(nbytes)
            self._charge(label, t)
            return t
        raise ValueError(f"store must be 'dfs' or 'online', got {store!r}")

    def charge_fixed(self, label: str, seconds: float) -> float:
        """Charge an arbitrary labelled serial cost (e.g. a checkpoint)."""
        self._charge(label, seconds)
        return seconds

    def _charge(self, label: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        if seconds == 0:
            return
        self.trace.add(Event(phase=label, label=label, node_id=-1, slot=0,
                             start=self.clock, end=self.clock + seconds))
        self.clock += seconds
