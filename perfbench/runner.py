"""The run protocol: set-up, measured repetitions, checks, the report.

One process runs one workload.  ``--trace 0`` measures the seven
end-to-end metrics with no measurement code in the job; ``--trace 1``
alternates traced and untraced repetitions in the same process and
reports the per-layer metrics, the difference between the two being
the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from typing import Any

from perfbench import OUT_DIR, REPO_ROOT
from perfbench.checks import digest
from perfbench.layers import TracedRep, layer_metrics
from perfbench.names import END_TO_END, PER_LAYER, RUN_SECONDS
from perfbench.probes import (
    GcPauses,
    busy_cores,
    peak_rss_mb,
    process_cpu_seconds,
    worker_pids,
)
from perfbench.replay import staged_replay, submit_bytes
from perfbench.spans import Tracer, chrome_trace
from perfbench.stats import median, quartiles
from perfbench.workloads import WORKLOADS, JobOutcome, Workload

__all__ = ["run_workload", "repetitions", "result_line", "print_report",
           "append_report"]

#: Other processes holding more than this many cores mark a run noisy.
NOISY_CORES = 0.5


def repetitions(workload: "type[Workload]", seconds: float) -> int:
    """Measured repetitions for a ``--seconds`` window: the workload's
    fixed count, which a window longer than the benchmark's own
    ``run_seconds`` scales up and nothing scales down."""
    return max(workload.reps, round(workload.reps * seconds / RUN_SECONDS))


class _Tally:
    """Counts attempted/failed repetitions and digest agreement."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.same_digest = 0
        self.first_digest: "str | None" = None
        self.reference: "tuple | None" = None
        self.messages: "list[str]" = []

    def record(self, failures: "list[str]", out_digest: str,
               exact: "tuple[int, float]") -> None:
        self.attempted += 1
        if self.first_digest is None:
            self.first_digest, self.reference = out_digest, exact
        if out_digest == self.first_digest:
            self.same_digest += 1
        if exact != self.reference:
            failures = failures + [
                f"global_iters/sim_seconds {exact!r} != first repetition's "
                f"{self.reference!r}"]
        if failures:
            self.failed += 1
            self.messages += failures[:3]


def _timed_job(workload: Workload, tracer: "Tracer | None" = None
               ) -> "tuple[JobOutcome, float, float, float]":
    """One job: ``(outcome, wall s, driver CPU s, gc pause s)``."""
    gc.collect()
    with GcPauses() as pauses:
        cpu0, t0 = time.process_time(), time.perf_counter()
        if tracer is not None:
            tracer.begin("job")
        try:
            outcome = workload.run_job(tracer)
        finally:
            if tracer is not None:
                tracer.end()
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    return outcome, wall, cpu, pauses.seconds


def _setup(workload: Workload, seed: int, tally: _Tally) -> float:
    """Set up (inputs, construction, pool start, one discarded job),
    compute the references, judge the discarded job.  Returns the
    set-up time; the references are outside it."""
    gc.collect()
    t0 = time.perf_counter()
    outcome = workload.setup(seed)
    setup_s = time.perf_counter() - t0
    workload.reference()
    tally.record(workload.check(outcome), digest(outcome.outputs),
                 (outcome.global_iters, outcome.sim_seconds))
    return setup_s


def run_workload(name: str, *, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the full report dict."""
    cls = WORKLOADS[name]
    busy = busy_cores()
    reps = repetitions(cls, seconds)
    workload = cls()
    tally = _Tally()
    report: "dict[str, Any]" = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "reps": reps, "busy_cores": busy, "noisy": busy > NOISY_CORES,
    }
    try:
        setup_s = _setup(workload, seed, tally)
        if trace:
            metrics = _traced_run(workload, name, seed, reps, tally, report)
        else:
            job_s = []
            for _ in range(reps):
                outcome, wall, _cpu, _gc = _timed_job(workload)
                tally.record(workload.check(outcome), digest(outcome.outputs),
                             (outcome.global_iters, outcome.sim_seconds))
                job_s.append(wall)
                del outcome
            report["job_s"] = job_s
            metrics = None
    finally:
        workload.close()
    if metrics is None:
        iters, sim = tally.reference
        values = {
            "setup_s": setup_s,
            "job_s_p50": median(job_s),
            "peak_rss_mb": peak_rss_mb(),
            "global_iters": float(iters),
            "sim_seconds": float(sim),
            "success_rate": (tally.attempted - tally.failed) / tally.attempted,
            "output_digest_stable": tally.same_digest / tally.attempted,
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END[k][0]}
                   for k in END_TO_END}
    report.update(attempted=tally.attempted, failed=tally.failed,
                  correct=tally.failed == 0
                  and tally.same_digest == tally.attempted,
                  failures=tally.messages[:10], metrics=metrics)
    return report


def _traced_run(workload: Workload, name: str, seed: int, reps: int,
                tally: _Tally, report: dict) -> dict:
    """Alternate untraced and traced repetitions; fold the layers."""
    extras = {**workload.setup_counts, **workload.extra_layers()}
    traced: "list[TracedRep]" = []
    untraced_s, driver_cpu = [], []
    pids: "set[int]" = set()
    standin = None
    for i in range(reps):
        tracer = Tracer() if i % 2 else None
        cpu_before = {pid: process_cpu_seconds(pid) for pid in pids}
        outcome, wall, cpu, gc_s = _timed_job(workload, tracer)
        tally.record(workload.check(outcome), digest(outcome.outputs),
                     (outcome.global_iters, outcome.sim_seconds))
        if tracer is None:
            untraced_s.append(wall)
            driver_cpu.append(cpu)
            continue
        rep = TracedRep(spans=tracer.spans, global_iters=outcome.global_iters,
                        job_s=wall, gc_pause_s=gc_s, counts=workload.counts(outcome))
        if outcome.standin is not None:
            standin = outcome.standin
            rep.round_counters = standin.round_counters
            if cpu_before:      # the first traced job only teaches us the pids
                rep.worker_cpu_s = sum(process_cpu_seconds(pid) - before
                                       for pid, before in cpu_before.items())
            for counters in standin.round_counters:
                pids |= worker_pids(counters)
        traced.append(rep)
    replay = None
    if standin is not None and standin.captured is not None:
        job, splits, live = standin.captured
        pooled = workload.pool_workers > 0
        replay = staged_replay(job, splits, live, shm=pooled)
        if pooled:      # the serial executor submits nothing to a pool
            extras["engine.runtime.submit_bytes"] = float(submit_bytes(job, splits))
        if not replay["bitwise"]:
            tally.failed += 1
            tally.messages.append("staged replay output differs from the live round")
    values = layer_metrics(traced, untraced_job_s=untraced_s, driver_cpu_s=driver_cpu,
                           replay=replay, pool_workers=workload.pool_workers,
                           extras=extras)
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{name}-seed{seed}.trace.json")
        chrome_trace(traced[-1].spans, path, process=f"perfbench {name}")
        report["trace_file"] = os.path.relpath(path, REPO_ROOT)
    report["job_s"] = untraced_s
    report["traced_job_s"] = [r.job_s for r in traced]
    return {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

def result_line(report: dict) -> str:
    """The contract's last stdout line."""
    return json.dumps({k: report[k] for k in
                       ("correct", "attempted", "failed", "metrics")})


def print_report(report: dict) -> None:
    """Every metric by name with its unit, then the result line."""
    head = (f"perfbench {report['workload']} seed={report['seed']} "
            f"trace={report['trace']} reps={report['reps']}")
    if report["noisy"]:
        head += f"  [noisy: {report['busy_cores']:.2f} cores busy elsewhere]"
    print(head)
    for name, m in report["metrics"].items():
        line = f"  {name:<40} {m['value']:>16.6f} {m['unit']}"
        if name == "job_s_p50":
            q1, _, q3 = quartiles(report["job_s"])
            line += f"   (q1 {q1:.4f}, q3 {q3:.4f}, N={len(report['job_s'])})"
        print(line)
    for message in report["failures"]:
        print(f"  FAILED: {message}", file=sys.stderr)
    if "trace_file" in report:
        print(f"  chrome trace: {report['trace_file']}")
    print(result_line(report))


def append_report(report: dict, path: str) -> None:
    """One JSON line per run (the input of ``compare``)."""
    line = {k: v for k, v in report.items() if k != "failures"}
    line["metrics"] = {k: m["value"] for k, m in report["metrics"].items()}
    with open(path, "a") as fh:
        fh.write(json.dumps(line) + "\n")
