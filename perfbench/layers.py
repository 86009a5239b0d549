"""Fold traced repetitions into the per-layer metrics of
:data:`perfbench.names.PER_LAYER`.

Timing metrics come from span self times (driver thread), from the
:class:`~perfbench.probes.TimedMap` counter (worker side), and from the
staged replay; counts come from the jobs' own counters and records.
Every ``*_ms`` is a job total divided by the job's global rounds, so
the span-derived ones add up to the traced job's round time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.engine.counters import (
    COMBINE_INPUT_RECORDS,
    COMBINE_OUTPUT_RECORDS,
    REDUCE_INPUT_RECORDS,
    SHUFFLE_BYTES,
)

from perfbench.names import PER_LAYER, SPAN_METRICS
from perfbench.probes import MAP_BODY_NS
from perfbench.spans import durations, self_times, span_counts
from perfbench.stats import median, tail_percentile

__all__ = ["TracedRep", "layer_metrics"]


@dataclass
class TracedRep:
    """One traced repetition, reduced to what the metrics need."""

    spans: "list[list]"
    global_iters: int
    job_s: float
    gc_pause_s: float
    counts: "dict[str, float]"
    #: Per-round engine counters (engine-path workloads; else empty).
    round_counters: "list[dict]" = field(default_factory=list)
    #: CPU seconds the pool workers spent on this job (None = unknown).
    worker_cpu_s: "float | None" = None


def _mean(values: "list[float]") -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(traced: "list[TracedRep]", *, untraced_job_s: "list[float]",
                  driver_cpu_s: "list[float]", replay: "dict | None",
                  pool_workers: int, extras: "dict[str, float]") -> "dict[str, float]":
    """All of ``PER_LAYER`` for one run (absent layers read 0).

    ``extras`` are metrics the caller measured itself (set-up counts,
    ``proc_over_serial``, ``submit_bytes``).
    """
    out = {name: 0.0 for name in PER_LAYER}
    out.update(extras)

    rounds_ms: "list[float]" = []
    per_rep: "dict[str, list[float]]" = {}

    def add(name: str, value: float) -> None:
        per_rep.setdefault(name, []).append(value)

    for rep in traced:
        rounds = max(1, rep.global_iters)
        own = self_times(rep.spans)
        for span, metric in SPAN_METRICS.items():
            add(metric, own.get(span, 0.0) * 1e3 / rounds)
        add("cluster.cluster.phases",
            float(span_counts(rep.spans).get("cluster.cluster.phase", 0)))
        add("gc.pause_ms", rep.gc_pause_s * 1e3 / rounds)
        if rep.worker_cpu_s is not None:
            add("engine.task.worker_cpu_s", rep.worker_cpu_s)
        rounds_ms += [d * 1e3 for d in durations(rep.spans, "core.loop.step")]
        for name, value in rep.counts.items():
            add(name, value)
        if rep.round_counters:
            total: "dict[str, int]" = {}
            for counters in rep.round_counters:
                for key, value in counters.items():
                    total[key] = total.get(key, 0) + value
            add("core.gmap.map_body_ms", total.get(MAP_BODY_NS, 0) / 1e6 / rounds)
            add("engine.shuffle.records", float(total.get(REDUCE_INPUT_RECORDS, 0)))
            add("engine.shuffle.bytes", float(total.get(SHUFFLE_BYTES, 0)))
            combined_in = total.get(COMBINE_INPUT_RECORDS, 0)
            add("engine.columnar.combine_ratio",
                total.get(COMBINE_OUTPUT_RECORDS, 0) / combined_in
                if combined_in else 0.0)
    for name, values in per_rep.items():
        out[name] = _mean(values)

    if rounds_ms:
        out["core.loop.round_ms_p50"] = median(rounds_ms)
        pct, value = tail_percentile(rounds_ms)
        out["core.loop.round_ms_tail"] = value
        out["core.loop.round_tail_pct"] = pct
    out["engine.runtime.driver_cpu_s"] = _mean(driver_cpu_s)
    if traced and untraced_job_s:
        out["trace.overhead_ratio"] = (median([r.job_s for r in traced])
                                       / median(untraced_job_s))

    if replay is not None:
        for stage, seconds in replay["seconds"].items():
            out[f"{stage}_ms"] = seconds * 1e3
        out["engine.shm.segments"] = float(replay["segments"])
        out["engine.shm.bytes"] = float(replay["bytes"])
        out["engine.replay.bitwise"] = 1.0 if replay["bitwise"] else 0.0
        wait_ms = max(0.0, out["engine.runtime.run_ms"]
                      - replay["driver_seconds"] * 1e3)
        out["engine.runtime.wait_ms"] = wait_ms
        if pool_workers and wait_ms:
            out["engine.runtime.parallel_efficiency"] = (
                replay["worker_seconds"] * 1e3 / (pool_workers * wait_ms))
    missing = set(out) - set(PER_LAYER)
    if missing:
        raise KeyError(f"unnamed per-layer metrics: {sorted(missing)}")
    return out

