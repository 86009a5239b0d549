"""Worker lifecycle for the simulated cluster, Skywriting/CIEL-style.

CIEL's master tracks every worker through register → heartbeat →
mark-dead → reassign; :class:`WorkerPool` reproduces that bookkeeping
over :class:`~repro.cluster.node.SimNode` ids so the phase scheduler can
lose machines *mid-phase* and price the consequences.  Death injection
comes from a duck-typed :class:`~repro.engine.NodeFaultPlan` (the
cluster package never imports the engine): at :meth:`begin_round` the
pool expands the plan's scripted deaths for the round into absolute
simulated death clocks, and the scheduler consumes them through
:meth:`pending_deaths` / :meth:`fire`.

Detection is heartbeat-priced: a dead worker is only *noticed*
``heartbeat_seconds`` after its last beat, so re-queued work cannot
start before ``death_clock + heartbeat_seconds`` — the detection
latency every recovery timeline pays first.

A fired death never re-fires: the pool keeps a (round, node) fired set,
so a checkpoint-rollback replay of the same round runs on the surviving
workers instead of killing the machine twice.  Between *normal* rounds
dead workers are replaced (a fresh worker registers under the same node
id), matching a cloud that keeps its fleet at target size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["WorkerInfo", "WorkerPool"]


@dataclass
class WorkerInfo:
    """One registered worker's lifecycle record."""

    node_id: int
    #: Simulated clock of registration.
    registered_at: float = 0.0
    #: Simulated clock of the last heartbeat received.
    last_heartbeat: float = 0.0
    alive: bool = True
    #: Simulated clock of death (None while alive).
    died_at: "float | None" = None
    #: Times this node id has been (re)registered — a replacement
    #: worker after a death bumps it.
    incarnation: int = 1

    def expired(self, clock: float, heartbeat_seconds: float) -> bool:
        """Silence longer than the heartbeat interval ⇒ presumed dead."""
        return clock - self.last_heartbeat > heartbeat_seconds


class WorkerPool:
    """Registration, heartbeats, death detection, and reassignment state.

    Parameters
    ----------
    nodes:
        The cluster's :class:`~repro.cluster.node.SimNode` machines (or
        anything with a ``node_id``); each registers one worker.
    plan:
        Duck-typed :class:`~repro.engine.NodeFaultPlan` (or None for an
        immortal fleet): supplies ``deaths_in_round``/
        ``heartbeat_seconds``.
    """

    def __init__(self, nodes: Sequence, plan=None) -> None:
        self.plan = plan
        self.workers: "dict[int, WorkerInfo]" = {}
        self.round = 0
        #: (round, node) deaths that already happened; never re-fired.
        self.fired: "set[tuple[int, int]]" = set()
        #: node -> absolute simulated death clock, this round, unfired.
        self._pending: "dict[int, float]" = {}
        for node in nodes:
            self.register(getattr(node, "node_id", node), 0.0)
        self.begin_round(0, 0.0)

    # ------------------------------------------------------------------
    # Skywriting-style lifecycle
    # ------------------------------------------------------------------
    @property
    def heartbeat_seconds(self) -> float:
        """Detection latency: silence longer than this marks a worker
        dead (0 without a plan — deaths are then driver-observed)."""
        return float(getattr(self.plan, "heartbeat_seconds", 0.0))

    def register(self, node_id: int, clock: float) -> WorkerInfo:
        """Register a (possibly replacement) worker for ``node_id``."""
        prev = self.workers.get(node_id)
        info = WorkerInfo(node_id=node_id, registered_at=clock,
                          last_heartbeat=clock,
                          incarnation=prev.incarnation + 1 if prev else 1)
        self.workers[node_id] = info
        return info

    def heartbeat(self, node_id: int, clock: float) -> None:
        """Record a heartbeat (dead workers stay dead — a zombie beat
        from a partitioned worker does not resurrect it)."""
        info = self.workers[node_id]
        if info.alive:
            info.last_heartbeat = clock

    def mark_dead(self, node_id: int, clock: float) -> None:
        """Declare a worker dead (its tasks become reassignable)."""
        info = self.workers[node_id]
        if info.alive:
            info.alive = False
            info.died_at = clock

    def is_alive(self, node_id: int) -> bool:
        return self.workers[node_id].alive

    @property
    def alive_nodes(self) -> "set[int]":
        return {nid for nid, w in self.workers.items() if w.alive}

    def expired(self, clock: float) -> "list[int]":
        """Node ids whose heartbeat silence exceeds the interval —
        what a sweep of the master's monitor thread would mark dead."""
        hb = self.heartbeat_seconds
        return sorted(nid for nid, w in self.workers.items()
                      if w.alive and w.expired(clock, hb))

    # ------------------------------------------------------------------
    # Scripted-death plumbing (consumed by SimCluster._run_phase)
    # ------------------------------------------------------------------
    def begin_round(self, round: int, clock: float) -> None:
        """Start a round: replace dead workers, arm the round's deaths.

        A checkpoint-rollback *replay* must NOT call this — replayed
        rounds run on the surviving fleet (the fired set keeps the
        deaths from re-firing either way, but replacement workers only
        arrive between real rounds).
        """
        self.round = round
        for nid, w in self.workers.items():
            if not w.alive:
                self.register(nid, clock)
        self._pending = {}
        if self.plan is None:
            return
        for nid, death in self.plan.deaths_in_round(round).items():
            if (round, nid) in self.fired or nid not in self.workers:
                continue
            self._pending[nid] = clock + death.at_seconds

    def pending_deaths(self) -> "dict[int, float]":
        """node -> absolute death clock for this round's unfired deaths."""
        return {nid: d for nid, d in self._pending.items()
                if self.workers[nid].alive}

    def fire(self, node_id: int, clock: float) -> None:
        """A pending death happened: mark dead, never fire it again."""
        self.mark_dead(node_id, clock)
        self.fired.add((self.round, node_id))
        self._pending.pop(node_id, None)

    def detection_clock(self, death_clock: float) -> float:
        """When the master *notices* a death at ``death_clock``."""
        return death_clock + self.heartbeat_seconds
