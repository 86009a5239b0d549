"""Correctness checks applied to every repetition.

Each check returns a list of failure strings (empty = passed); the
runner counts a repetition with any failure against ``success_rate``
and never raises, so a wrong output lowers a metric instead of
aborting the run.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Iterable

import numpy as np

from repro.cluster import Trace

from perfbench.inputs import DAMPING, SweepInput

__all__ = [
    "digest",
    "sweep_oracle",
    "check_close",
    "check_equal",
    "check_sim_job",
    "check_cluster_clock",
    "check_slots",
]

#: Relative slack on sums of simulated seconds (float re-association).
SIM_RTOL = 1e-9


def digest(arrays: "Iterable[Any]") -> str:
    """SHA-256 over the raw bytes of ``arrays`` in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def sweep_oracle(inp: SweepInput, sweeps: int) -> np.ndarray:
    """Plain-NumPy synchronous PageRank sweeps over the same edges."""
    ranks = np.ones(inp.nodes, dtype=np.float64)
    for _ in range(sweeps):
        contrib = np.bincount(inp.dst,
                              weights=ranks[inp.src] * inp.damped_inv_out[inp.src],
                              minlength=inp.nodes)
        ranks = (1.0 - DAMPING) + contrib
    return ranks


def check_close(what: str, got: Any, want: Any, *, rtol: float = 0.0,
                atol: float = 0.0) -> "list[str]":
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != {want.shape}"]
    if not np.allclose(got, want, rtol=rtol, atol=atol):
        return [f"{what}: max abs diff {float(np.abs(got - want).max()):.3g}"]
    return []


def check_equal(what: str, got: Any, want: Any) -> "list[str]":
    """Bitwise equality of two arrays (NaN-free by construction)."""
    if not np.array_equal(np.asarray(got), np.asarray(want)):
        return [f"{what}: not bitwise equal"]
    return []


def check_sim_job(name: str, result: Any) -> "list[str]":
    """A simulated job converged and its rounds add up to its time."""
    out = []
    if not result.converged:
        out.append(f"{name}: did not converge in {result.global_iters} rounds")
    rounds = math.fsum(r.sim_seconds for r in result.history)
    if not math.isclose(rounds, result.sim_time, rel_tol=SIM_RTOL, abs_tol=1e-9):
        out.append(f"{name}: rounds sum {rounds!r} != sim_time {result.sim_time!r}")
    return out


def check_cluster_clock(name: str, charged: float, clock_delta: float) -> "list[str]":
    """What the jobs were charged is what the cluster clock advanced."""
    if not math.isclose(charged, clock_delta, rel_tol=SIM_RTOL, abs_tol=1e-9):
        return [f"{name}: charged {charged!r} != clock delta {clock_delta!r}"]
    return []


def check_slots(cluster: Any, job_names: "list[str]") -> "list[str]":
    """Within each job, no map slot and no reduce slot runs two trace
    events at once.

    Judged per job because concurrent fair-share jobs legitimately
    share slots; per slot pool because map and reduce slots are
    numbered alike; and without the projected speculative backups,
    which are placed on a rebuilt schedule rather than the primary one.
    """
    pools = {(name, kind): Trace() for name in job_names
             for kind in ("map", "reduce")}
    for event in cluster.trace.events:
        job = event.label.split(":", 1)[0]
        kind = "map" if ":map" in event.phase else "reduce"
        if (job, kind) in pools and not event.label.endswith(":backup"):
            pools[job, kind].add(event)
    out = []
    for (name, kind), trace in pools.items():
        try:
            trace.check_no_overlap()
        except AssertionError as exc:
            out.append(f"{name} {kind} slots: {exc}")
    return out
