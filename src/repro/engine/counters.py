"""Job counters, after Hadoop's counter facility.

Counters are the engine's measurement channel: every task counts its
input/output records and operations, tasks' counters are merged into the
job's, and the cost model converts the operation counts into simulated
seconds.  Applications may define their own counters through the task
context (``ctx.incr("my.counter")``).
"""

from __future__ import annotations

from collections import Counter as _Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping

__all__ = [
    "Counters",
    "MAP_INPUT_RECORDS",
    "MAP_OUTPUT_RECORDS",
    "COMBINE_INPUT_RECORDS",
    "COMBINE_OUTPUT_RECORDS",
    "REDUCE_INPUT_GROUPS",
    "REDUCE_INPUT_RECORDS",
    "REDUCE_OUTPUT_RECORDS",
    "SHUFFLE_BYTES",
    "MAP_OPS",
    "REDUCE_OPS",
    "TASK_RETRIES",
    "SPECULATIVE_BACKUPS",
    "SPECULATIVE_WINS",
    "SPECULATIVE_WASTED_TASKS",
    "NODE_DEATHS",
    "LOST_MAP_OUTPUTS",
]

# Built-in counter names (namespaced like Hadoop's "FileSystemCounters").
MAP_INPUT_RECORDS = "task.map.input.records"
MAP_OUTPUT_RECORDS = "task.map.output.records"
COMBINE_INPUT_RECORDS = "task.combine.input.records"
COMBINE_OUTPUT_RECORDS = "task.combine.output.records"
REDUCE_INPUT_GROUPS = "task.reduce.input.groups"
REDUCE_INPUT_RECORDS = "task.reduce.input.records"
REDUCE_OUTPUT_RECORDS = "task.reduce.output.records"
SHUFFLE_BYTES = "job.shuffle.bytes"
MAP_OPS = "task.map.ops"
REDUCE_OPS = "task.reduce.ops"
TASK_RETRIES = "job.task.retries"
SPECULATIVE_BACKUPS = "job.speculative.backups"
SPECULATIVE_WINS = "job.speculative.wins"
SPECULATIVE_WASTED_TASKS = "job.speculative.wasted"
NODE_DEATHS = "job.node.deaths"
LOST_MAP_OUTPUTS = "job.node.lost.map.outputs"


@dataclass
class Counters:
    """A mergeable bag of named non-negative counters."""

    _data: _Counter = field(default_factory=_Counter)

    def incr(self, name: str, amount: int = 1) -> None:
        """Increment ``name`` by ``amount`` (negative increments rejected)."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self._data[name] += amount

    def get(self, name: str) -> int:
        """Current value (0 for never-touched counters)."""
        return self._data.get(name, 0)

    def merge(self, other: "Counters | Mapping[str, int]") -> None:
        """Add another counter bag into this one."""
        items: Iterable[tuple[str, int]]
        if isinstance(other, Counters):
            items = other._data.items()
        else:
            items = other.items()
        for name, amount in items:
            self._data[name] += amount

    def as_dict(self) -> dict[str, int]:
        """Snapshot as a plain dict (sorted keys)."""
        return {k: self._data[k] for k in sorted(self._data)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"Counters({inner})"
