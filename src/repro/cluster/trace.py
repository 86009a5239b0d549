"""Execution trace of the simulated cluster.

Every scheduled task becomes an :class:`Event` with its slot, start and
end time; phases (map, shuffle, reduce, DFS) are labelled so utilization
and phase breakdowns can be reported.  The trace is what lets the tests
assert scheduler invariants (no slot overlap, makespan >= critical path)
and lets benchmark output explain *where* simulated time goes — which is
the paper's whole argument (global sync dominates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["Event", "Trace"]


@dataclass(frozen=True, slots=True)
class Event:
    """One scheduled interval on the simulated cluster.  Slotted: a
    traced session holds tens of thousands of them."""

    phase: str
    label: str
    node_id: int
    slot: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"event ends before it starts: {self}")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Trace:
    """An append-only log of events plus aggregate queries."""

    events: list[Event] = field(default_factory=list)

    def add(self, event: Event) -> None:
        self.events.append(event)

    def extend(self, events: Iterable[Event]) -> None:
        self.events.extend(events)

    def makespan(self) -> float:
        """Latest end time over all events (0.0 when empty)."""
        return max((e.end for e in self.events), default=0.0)

    def phase_time(self, phase: str) -> float:
        """Total busy time attributed to ``phase`` across all slots."""
        return sum(e.duration for e in self.events if e.phase == phase)

    def phases(self) -> dict[str, float]:
        """Busy time per phase."""
        out: dict[str, float] = {}
        for e in self.events:
            out[e.phase] = out.get(e.phase, 0.0) + e.duration
        return out

    def utilization(self, total_slots: int) -> float:
        """Busy time / (makespan * slots); 0 for an empty trace."""
        if total_slots <= 0:
            raise ValueError("total_slots must be > 0")
        span = self.makespan()
        if span == 0.0:
            return 0.0
        busy = sum(e.duration for e in self.events)
        return busy / (span * total_slots)

    def check_no_overlap(self) -> None:
        """Raise ``AssertionError`` if two events share a slot and overlap."""
        by_slot: dict[tuple[int, int], list[Event]] = {}
        for e in self.events:
            by_slot.setdefault((e.node_id, e.slot), []).append(e)
        for evs in by_slot.values():
            evs.sort(key=lambda e: e.start)
            for a, b in zip(evs, evs[1:]):
                assert a.end <= b.start + 1e-9, f"overlap on slot: {a} vs {b}"

    def __len__(self) -> int:
        return len(self.events)
