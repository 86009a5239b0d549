"""Task scheduling policies on the simulated cluster.

The runtime executes real Python work; *when* tasks would run on the
modelled testbed is this module's job.  The policies:

* :func:`lpt_schedule` — greedy longest-processing-time list scheduling
  (the default the cluster uses for phase makespans).
* :func:`submission_order_schedule` — true FIFO: tasks start strictly in
  submission order, each on the earliest-available slot, modelling a
  queue drained by slot heartbeats with no reordering.
* :func:`speculative_schedule` — Hadoop's backup-task heuristic: when a
  task's expected completion lags the phase average by a threshold (a
  "straggler", e.g. on a slow node), a duplicate attempt is launched on
  the earliest free slot and the earlier finisher wins.  The paper runs
  on "a production cloud environment, with real-life transient failures"
  (§VI); speculative execution is how the baseline MapReduce keeps
  stragglers from stretching every global barrier.
* :func:`locality_schedule` — LPT with Hadoop's data-placement
  preference (§VII).

All policies return a :class:`ScheduleOutcome` with per-task completion
times so tests can assert their invariants (speculation never increases
makespan; it strictly helps when one node is much slower).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from repro.cluster.cluster import late_threshold
from repro.cluster.node import SimNode

__all__ = ["ScheduleOutcome", "lpt_schedule", "submission_order_schedule",
           "speculative_schedule", "locality_schedule"]


@dataclass(frozen=True)
class ScheduleOutcome:
    """Result of simulating one phase under a scheduling policy."""

    #: Completion time of each task (first successful attempt).
    completion: tuple
    #: Phase makespan (max completion).
    makespan: float
    #: Number of backup (speculative) attempts launched.
    backups: int

    def __post_init__(self) -> None:
        if self.makespan < 0:
            raise ValueError("negative makespan")


def _slot_heap(nodes: Sequence[SimNode], kind: str):
    slots = []
    for node in nodes:
        count = node.map_slots if kind == "map" else node.reduce_slots
        for s in range(count):
            slots.append((0.0, node.node_id, s, node.speed))
    if not slots:
        raise ValueError(f"no {kind} slots")
    heapq.heapify(slots)
    return slots


def lpt_schedule(task_costs: Sequence[float], nodes: Sequence[SimNode], *,
                 kind: str = "map") -> ScheduleOutcome:
    """Greedy LPT (longest-processing-time) list scheduling; no backups."""
    costs = [float(c) for c in task_costs]
    if any(c < 0 for c in costs):
        raise ValueError("task costs must be >= 0")
    heap = _slot_heap(nodes, kind)
    completion = [0.0] * len(costs)
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        avail, nid, sidx, speed = heapq.heappop(heap)
        end = avail + costs[i] / speed
        completion[i] = end
        heapq.heappush(heap, (end, nid, sidx, speed))
    return ScheduleOutcome(
        completion=tuple(completion),
        makespan=max(completion, default=0.0),
        backups=0,
    )


def submission_order_schedule(task_costs: Sequence[float],
                              nodes: Sequence[SimNode], *,
                              kind: str = "map") -> ScheduleOutcome:
    """True FIFO list scheduling: tasks start in submission order.

    Each task, in the order given, is placed on the slot that becomes
    available earliest — a queue drained by slot heartbeats, with no
    longest-first reordering.  Usually — not always; both are greedy
    list-scheduling heuristics — trails :func:`lpt_schedule` on
    makespan; use it to model a scheduler that honours submission order.
    """
    costs = [float(c) for c in task_costs]
    if any(c < 0 for c in costs):
        raise ValueError("task costs must be >= 0")
    heap = _slot_heap(nodes, kind)
    completion = [0.0] * len(costs)
    for i in range(len(costs)):
        avail, nid, sidx, speed = heapq.heappop(heap)
        end = avail + costs[i] / speed
        completion[i] = end
        heapq.heappush(heap, (end, nid, sidx, speed))
    return ScheduleOutcome(
        completion=tuple(completion),
        makespan=max(completion, default=0.0),
        backups=0,
    )


def locality_schedule(task_costs: Sequence[float], nodes: Sequence[SimNode],
                      preferred_node: Sequence[int], *,
                      kind: str = "map",
                      remote_penalty: float = 0.3) -> ScheduleOutcome:
    """LPT scheduling with data locality, after Hadoop's placement.

    "The MapReduce runtime attempts to reduce communication by trying to
    instantiate a task at the node or the rack where the data is
    present" (§VII).  Each task names the node holding its input split;
    running on any other node adds ``remote_penalty`` seconds (the
    remote block fetch).  The scheduler places each task on the slot
    that finishes it earliest *including* the penalty, so local
    placement wins whenever a local slot is available soon enough.
    """
    costs = [float(c) for c in task_costs]
    if any(c < 0 for c in costs):
        raise ValueError("task costs must be >= 0")
    if len(preferred_node) != len(costs):
        raise ValueError("preferred_node must align with task_costs")
    node_ids = {n.node_id for n in nodes}
    for p in preferred_node:
        if p not in node_ids:
            raise ValueError(f"preferred node {p} not in the cluster")
    if remote_penalty < 0:
        raise ValueError("remote_penalty must be >= 0")

    slots = _slot_heap(nodes, kind)  # heapified list of (avail, nid, sidx, speed)
    completion = [0.0] * len(costs)
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        # choose the slot minimising finish time incl. locality penalty
        best_j = None
        best_end = None
        for j, (avail, nid, sidx, speed) in enumerate(slots):
            penalty = 0.0 if nid == preferred_node[i] else remote_penalty
            end = avail + (costs[i] + penalty) / speed
            if best_end is None or end < best_end:
                best_end = end
                best_j = j
        assert best_j is not None and best_end is not None
        avail, nid, sidx, speed = slots[best_j]
        slots[best_j] = (best_end, nid, sidx, speed)
        completion[i] = best_end
    return ScheduleOutcome(
        completion=tuple(completion),
        makespan=max(completion, default=0.0),
        backups=0,
    )


def speculative_schedule(task_costs: Sequence[float], nodes: Sequence[SimNode], *,
                         kind: str = "map",
                         slowdown_threshold: float = 1.5,
                         percentile: "float | None" = None) -> ScheduleOutcome:
    """LPT scheduling plus Hadoop-style speculative backups.

    After the initial assignment, any task whose projected completion
    exceeds ``slowdown_threshold`` x a phase estimate gets a backup
    attempt on the slot that can finish it earliest; the task completes
    at the earlier of the two attempts.  The estimate is the mean
    completion by default (Hadoop 0.20's heuristic); ``percentile``
    switches it to a percentile of the completions (0.5 = the LATE
    paper's robust median, shared with
    :meth:`~repro.cluster.SimCluster.run_map_phase` speculation).  This
    models speculative execution closely enough for the invariants that
    matter: makespan never increases, and a straggler node's impact is
    bounded.
    """
    if slowdown_threshold <= 1.0:
        raise ValueError("slowdown_threshold must be > 1")
    base = lpt_schedule(task_costs, nodes, kind=kind)
    costs = [float(c) for c in task_costs]
    if not costs:
        return base

    cut = late_threshold(base.completion,
                         slowdown_threshold=slowdown_threshold,
                         percentile=percentile)
    stragglers = [i for i, c in enumerate(base.completion) if c > cut]
    if not stragglers:
        return base

    # Rebuild slot availability from the base schedule: slots not running
    # a straggler keep their load; back up each straggler on the slot
    # that finishes it earliest (duplicate work, as in Hadoop).
    heap = _slot_heap(nodes, kind)
    # Re-apply non-straggler load in LPT order to approximate the base
    # schedule's slot occupancy.
    straggler_set = set(stragglers)
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        if i in straggler_set:
            continue
        avail, nid, sidx, speed = heapq.heappop(heap)
        heapq.heappush(heap, (avail + costs[i] / speed, nid, sidx, speed))

    completion = list(base.completion)
    backups = 0
    for i in sorted(stragglers, key=lambda i: -costs[i]):
        avail, nid, sidx, speed = heapq.heappop(heap)
        backup_end = avail + costs[i] / speed
        completion[i] = min(completion[i], backup_end)
        backups += 1
        heapq.heappush(heap, (backup_end, nid, sidx, speed))
    return ScheduleOutcome(
        completion=tuple(completion),
        makespan=max(completion),
        backups=backups,
    )
