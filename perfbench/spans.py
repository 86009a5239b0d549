"""In-memory spans: one record per layer-boundary call, kept until the
run ends, then folded into per-name self times and a Chrome trace.

A span is ``[name, start, end, parent]`` with ``parent`` the index of
the enclosing span (-1 for a root).  All spans are recorded on the
driver thread, so the open-span stack *is* the causal chain.  A
layer's **self time** is its span's duration minus the part of that
interval its direct children cover; summed over a tree, self times add
up to the root's duration exactly, which is what lets the per-layer
``*_ms`` metrics be read as shares of the job.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable

__all__ = ["Tracer", "self_times", "span_counts", "durations", "chrome_trace"]

NAME, START, END, PARENT = range(4)


class Tracer:
    """Span recorder for one traced job repetition."""

    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self._stack: "list[int]" = []

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent])

    def end(self) -> None:
        self.spans[self._stack.pop()][END] = time.perf_counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        begin, end = self.begin, self.end

        def traced(*args: Any, **kwargs: Any) -> Any:
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return traced


def self_times(spans: "list[list]") -> "dict[str, float]":
    """Seconds of self time per span name (duration minus direct
    children), summed over every span of that name."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    out: "dict[str, float]" = {}
    for span, child_time in zip(spans, covered):
        out[span[NAME]] = (out.get(span[NAME], 0.0)
                           + (span[END] - span[START]) - child_time)
    return out


def span_counts(spans: "list[list]") -> "dict[str, int]":
    """Number of spans recorded per name."""
    out: "dict[str, int]" = {}
    for span in spans:
        out[span[NAME]] = out.get(span[NAME], 0) + 1
    return out


def durations(spans: "list[list]", name: str) -> "list[float]":
    """Inclusive durations (seconds) of every span called ``name``."""
    return [s[END] - s[START] for s in spans if s[NAME] == name]


def chrome_trace(spans: "list[list]", path: str, *, process: str) -> None:
    """Write ``spans`` as a Chrome/Perfetto trace (complete ``X``
    events on one thread; nesting is implied by containment)."""
    t0 = spans[0][START] if spans else 0.0
    events: "list[dict]" = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
        "args": {"name": process}}]
    for name, start, end, _parent in spans:
        events.append({"name": name, "ph": "X", "pid": 1, "tid": 1,
                       "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6})
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
