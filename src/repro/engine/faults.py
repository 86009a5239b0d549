"""Failure injection and the deterministic-replay recovery contract.

MapReduce's fault tolerance "is achieved through deterministic-replay,
i.e., re-scheduling failed computations on another running node" (§II).
To test that our runtime honours the contract (same final output with or
without failures), :attr:`FaultPlan.scripted` fails the first attempts
of exact ``(phase, task)`` pairs; a plan is plain data, so it pickles to
process-pool workers and replays identically.

Failures are not the only heterogeneity a production cloud injects:
tasks also *straggle* — they run, just slowly.  :class:`StragglerPlan`
is the deterministic source of that slowness for the simulated cluster
(per-node slowdown multipliers), and :attr:`FaultPlan.stalls` injects
real wall-clock stalls into engine task attempts so speculative
re-execution has something to race.

Independent task failures miss the correlated case: a whole machine (or
a whole rack) goes down mid-round, taking every in-flight attempt on it
*and* its already-produced map outputs.  :class:`NodeFaultPlan` scripts
exactly that — failure *domains* (node → tasks, rack → nodes) with
deterministic death times — and both execution layers consume it: the
real runtime kills/invalidates by task placement, the simulated cluster
by slot placement through its ``WorkerPool``.  Recovery is the paper's
deterministic replay, extended with lineage: lost map outputs are
re-executed, not merely retried.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["SimulatedTaskFailure", "FaultPlan", "StragglerPlan",
           "NodeDeath", "NodeFaultPlan"]


class SimulatedTaskFailure(RuntimeError):
    """Raised inside a task runner to simulate a machine/task failure."""


@dataclass(frozen=True)
class FaultPlan:
    """Decides whether a given task attempt fails, or stalls first.

    An empty plan (:meth:`none`) never fails.
    """

    #: Scripted failures: (phase, task_index) -> number of failing
    #: attempts.  ``{("map", 3): 2}`` fails map task 3's attempts 0 and
    #: 1; attempt 2 succeeds.
    scripted: "dict[tuple[str, int], int]" = field(default_factory=dict)
    #: Wall-clock stalls: (phase, task_index) -> seconds the task's
    #: *first* attempt sleeps before running.  Stalls model transient
    #: slowness, so retries and speculative backups run at full speed —
    #: which is exactly what gives a backup attempt its edge.
    stalls: "dict[tuple[str, int], float]" = field(default_factory=dict)

    def __post_init__(self) -> None:
        for (phase, idx), n in self.scripted.items():
            if phase not in ("map", "reduce"):
                raise ValueError(f"unknown phase {phase!r}")
            if idx < 0 or n < 0:
                raise ValueError("scripted entries must be non-negative")
        for (phase, idx), secs in self.stalls.items():
            if phase not in ("map", "reduce"):
                raise ValueError(f"unknown phase {phase!r}")
            if idx < 0 or secs < 0:
                raise ValueError("stall entries must be non-negative")
            if not math.isfinite(secs):
                raise ValueError(f"stall seconds must be finite, got {secs}")

    @classmethod
    def none(cls) -> "FaultPlan":
        """A plan with no failures."""
        return cls()

    def stall_seconds_for(self, phase: str, task_index: int,
                          attempt: int) -> float:
        """Seconds this attempt should sleep before running (0 for
        retries/backups: stalls are transient, tied to attempt 0)."""
        if attempt != 0:
            return 0.0
        return self.stalls.get((phase, task_index), 0.0)

    def maybe_fail(self, phase: str, task_index: int, attempt: int) -> None:
        """Raise :class:`SimulatedTaskFailure` if this attempt should fail."""
        if attempt < self.scripted.get((phase, task_index), 0):
            raise SimulatedTaskFailure(
                f"scripted failure: {phase} task {task_index} attempt {attempt}"
            )


@dataclass(frozen=True)
class StragglerPlan:
    """Deterministic heterogeneity for the simulated cluster.

    ``node_slowdown`` holds per-node multipliers on task duration, as
    the paper's production cloud slows some machines: a node mapped to
    4.0 runs every task four times slower (a failing disk, a noisy
    neighbour VM).

    The plan is consumed by :class:`~repro.cluster.SimCluster` phase
    scheduling (duck-typed — the cluster package never imports the
    engine), making simulated phase charges reflect per-node slowdowns
    instead of uniform node speed.
    """

    #: node_id -> duration multiplier (> 1 is slower). Missing ids run
    #: at full speed.
    node_slowdown: "dict[int, float]" = field(default_factory=dict)

    def __post_init__(self) -> None:
        for nid, factor in self.node_slowdown.items():
            if nid < 0:
                raise ValueError("node ids must be >= 0")
            if not math.isfinite(factor):
                raise ValueError(
                    f"slowdown for node {nid} must be finite, got {factor}")
            if factor < 1.0:
                raise ValueError(
                    f"slowdown for node {nid} must be >= 1 (got {factor}); "
                    "fast nodes belong in SimNode.speed")

    @classmethod
    def slow_nodes(cls, node_slowdown: "dict[int, float]") -> "StragglerPlan":
        """Slow specific nodes down."""
        return cls(node_slowdown=dict(node_slowdown))

    def node_factor(self, node_id: int) -> float:
        """Duration multiplier for tasks scheduled on ``node_id``."""
        return self.node_slowdown.get(node_id, 1.0)


@dataclass(frozen=True)
class NodeDeath:
    """One scripted correlated failure: a node (or its rack) dies.

    The two triggers serve the two execution layers.  The simulated
    cluster kills the node ``at_seconds`` into the named round's map
    phase — simulated time is its native clock.  The real runtime has no
    useful wall clock (task durations are microseconds and
    nondeterministic), so it fires the death once ``after_completions``
    map tasks of the round have completed — a deterministic progress
    point on every executor.
    """

    #: The node that dies (with ``rack=True``: any node of the rack,
    #: expanded to the whole rack by the plan).
    node: int
    #: Global iteration index (round) the death occurs in.
    round: int = 0
    #: Simulated seconds into the round's map phase (SimCluster path).
    at_seconds: float = 0.0
    #: Kill the node's entire rack, not just the node.
    rack: bool = False
    #: Completed-map-task count that triggers the death (engine path).
    after_completions: int = 1

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError("node must be >= 0")
        if self.round < 0:
            raise ValueError("round must be >= 0")
        if self.at_seconds < 0:
            raise ValueError("at_seconds must be >= 0")
        if not math.isfinite(self.at_seconds):
            raise ValueError(f"at_seconds must be finite, got {self.at_seconds}")
        if self.after_completions < 0:
            raise ValueError("after_completions must be >= 0")


@dataclass(frozen=True)
class NodeFaultPlan:
    """Correlated-failure domains: which nodes die, when, and together.

    Failure domains compose node → tasks and rack → nodes: killing a
    node kills every in-flight attempt placed on it and invalidates its
    completed map outputs; killing a rack does that to
    ``nodes_per_rack`` adjacent nodes at once (node ``n`` lives in rack
    ``n // nodes_per_rack``).  Deaths are scripted
    (:meth:`kill_node` / :meth:`kill_rack`), so a plan is deterministic
    and picklable.

    Detection is not free: a death is only *noticed* after
    ``heartbeat_seconds`` of silence, which the simulated cluster prices
    into the recovery timeline (the real runtime notices via in-process
    callbacks, so the charge is applied by the accountant instead).

    Consumed duck-typed by :class:`~repro.cluster.WorkerPool` and
    :class:`~repro.cluster.SimCluster` (the cluster package never
    imports the engine) and natively by
    :class:`~repro.engine.MapReduceRuntime`.
    """

    #: Cluster size the domains are defined over.
    num_nodes: int = 8
    #: Rack width; node n belongs to rack n // nodes_per_rack.
    nodes_per_rack: int = 4
    #: Scripted deaths (rack deaths expand at query time).
    deaths: "tuple[NodeDeath, ...]" = ()
    #: Heartbeat interval: silence longer than this marks a node dead.
    heartbeat_seconds: float = 3.0

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if not 1 <= self.nodes_per_rack <= self.num_nodes:
            raise ValueError("nodes_per_rack must be in [1, num_nodes]")
        if self.heartbeat_seconds < 0:
            raise ValueError("heartbeat_seconds must be >= 0")
        if not math.isfinite(self.heartbeat_seconds):
            raise ValueError(
                f"heartbeat_seconds must be finite, got {self.heartbeat_seconds}")
        for d in self.deaths:
            if d.node >= self.num_nodes:
                raise ValueError(
                    f"death names node {d.node} but the plan has "
                    f"{self.num_nodes} nodes")

    @classmethod
    def none(cls) -> "NodeFaultPlan":
        """A plan under which every node survives."""
        return cls()

    @classmethod
    def kill_node(cls, node: int, *, round: int = 0,
                  at_seconds: float = 0.0, after_completions: int = 1,
                  num_nodes: int = 8, nodes_per_rack: int = 4,
                  heartbeat_seconds: float = 3.0) -> "NodeFaultPlan":
        """Script one node's death ("node 3 dies at t=12s of round 4")."""
        return cls(num_nodes=num_nodes,
                   nodes_per_rack=min(nodes_per_rack, num_nodes),
                   heartbeat_seconds=heartbeat_seconds,
                   deaths=(NodeDeath(node, round=round,
                                     at_seconds=at_seconds,
                                     after_completions=after_completions),))

    @classmethod
    def kill_rack(cls, rack: int, *, round: int = 0,
                  at_seconds: float = 0.0, after_completions: int = 1,
                  num_nodes: int = 8, nodes_per_rack: int = 4,
                  heartbeat_seconds: float = 3.0) -> "NodeFaultPlan":
        """Script a whole rack's death (correlated: a switch, a PDU)."""
        nodes_per_rack = min(nodes_per_rack, num_nodes)
        first = rack * nodes_per_rack
        if first >= num_nodes:
            raise ValueError(f"rack {rack} is beyond a {num_nodes}-node "
                             f"cluster with {nodes_per_rack}-node racks")
        return cls(num_nodes=num_nodes, nodes_per_rack=nodes_per_rack,
                   heartbeat_seconds=heartbeat_seconds,
                   deaths=(NodeDeath(first, round=round,
                                     at_seconds=at_seconds, rack=True,
                                     after_completions=after_completions),))

    def node_rack(self, node: int) -> int:
        """Rack id of ``node``."""
        return node // self.nodes_per_rack

    def rack_nodes(self, rack: int) -> "tuple[int, ...]":
        """All node ids of ``rack`` that exist in this cluster."""
        first = rack * self.nodes_per_rack
        return tuple(n for n in range(first, first + self.nodes_per_rack)
                     if n < self.num_nodes)

    def deaths_in_round(self, round: int) -> "dict[int, NodeDeath]":
        """Expanded node → death map for one round.

        Rack deaths expand to every node of the rack (each expanded
        death keeps the trigger of the scripted one).
        """
        out: "dict[int, NodeDeath]" = {}
        for d in self.deaths:
            if d.round != round:
                continue
            targets = (self.rack_nodes(self.node_rack(d.node))
                       if d.rack else (d.node,))
            for n in targets:
                out.setdefault(n, NodeDeath(
                    n, round=round, at_seconds=d.at_seconds, rack=d.rack,
                    after_completions=d.after_completions))
        return out

    @property
    def is_empty(self) -> bool:
        return not self.deaths
