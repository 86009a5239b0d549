"""The simulated cluster's dead-node set: which slots the scheduler skips.

Death injection comes from a duck-typed :class:`~repro.engine.NodeFaultPlan`
(the cluster package never imports the engine): at :meth:`begin_round`
the pool expands the plan's scripted deaths for the round into absolute
simulated death clocks, and the phase scheduler consumes them through
:meth:`pending_deaths` / :meth:`fire`, skipping the slots of every node
outside :attr:`alive_nodes`.

Detection is heartbeat-priced: a dead node is only *noticed* one
``heartbeat_seconds`` interval after its death, so re-queued work cannot
start before ``death_clock + heartbeat_seconds`` — the detection
latency every recovery timeline pays first.

A fired death never re-fires: the pool keeps a (round, node) fired set,
so a checkpoint-rollback replay of the same round runs on the surviving
nodes instead of killing the machine twice.  Between *normal* rounds
the fleet is restored to full size, matching a cloud that replaces lost
machines.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["WorkerPool"]


class WorkerPool:
    """Dead nodes, this round's armed deaths, and detection latency.

    Parameters
    ----------
    nodes:
        The cluster's :class:`~repro.cluster.node.SimNode` machines (or
        bare node ids); the plan names no other node (``SimCluster``
        checks).
    plan:
        Duck-typed :class:`~repro.engine.NodeFaultPlan` (or None for an
        immortal fleet): supplies ``deaths_in_round``/
        ``heartbeat_seconds``.
    """

    def __init__(self, nodes: Sequence, plan=None) -> None:
        self._plan = plan
        self._nodes = frozenset(getattr(node, "node_id", node)
                                for node in nodes)
        self._dead: "set[int]" = set()
        self._round = 0
        #: (round, node) deaths that already happened; never re-fired.
        self._fired: "set[tuple[int, int]]" = set()
        #: node -> absolute simulated death clock, this round, unfired.
        self._pending: "dict[int, float]" = {}
        self.begin_round(0, 0.0)

    @property
    def heartbeat_seconds(self) -> float:
        """Detection latency: a death is noticed this long after it
        happens (0 without a plan — deaths are then driver-observed)."""
        return float(getattr(self._plan, "heartbeat_seconds", 0.0))

    @property
    def alive_nodes(self) -> "set[int]":
        return set(self._nodes - self._dead)

    def begin_round(self, round: int, clock: float) -> None:
        """Start a round: restore the full fleet, arm the round's deaths.

        A checkpoint-rollback *replay* must NOT call this — replayed
        rounds run on the surviving fleet (the fired set keeps the
        deaths from re-firing either way, but replacement machines only
        arrive between real rounds).
        """
        self._round = round
        self._dead.clear()
        self._pending = {}
        if self._plan is None:
            return
        for nid, death in self._plan.deaths_in_round(round).items():
            if (round, nid) not in self._fired:
                self._pending[nid] = clock + death.at_seconds

    def pending_deaths(self) -> "dict[int, float]":
        """node -> absolute death clock for this round's unfired deaths."""
        return dict(self._pending)

    def fire(self, node_id: int, clock: float) -> None:
        """A pending death happened at ``clock``: the node is dead for
        the rest of the round, and this (round, node) never fires again."""
        self._dead.add(node_id)
        self._fired.add((self._round, node_id))
        self._pending.pop(node_id, None)

    def detection_clock(self, death_clock: float) -> float:
        """When the master *notices* a death at ``death_clock``."""
        return death_clock + self.heartbeat_seconds
