"""Automatic map-granularity selection — §VIII "Optimal granularity for maps".

    "As shown in our work, as well as the results of others, the
    performance of a MapReduce program is a sensitive function of map
    granularity.  An automated technique, based on execution traces and
    sampling, can potentially deliver these performance increments
    without burdening the programmer with locality enhancing
    aggregations."

:func:`autotune_partitions` implements that technique for the block
driver: for each candidate partition count it *probes* a few global
iterations on the simulated cluster, measures the per-round cost and the
residual contraction rate from the execution trace, extrapolates the
total time-to-converge, and picks the cheapest candidate.  The probe
cost is a small fraction of a full sweep — the sampling idea of the
paper's citation [5].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.cluster import SimCluster
from repro.core.api import BlockSpec
from repro.core.config import DriverConfig
from repro.core.loop import BlockBackend, IterationLoop

__all__ = ["ProbeResult", "AutotuneReport", "autotune_partitions"]

#: Residual at which a full run would stop: the probes' contraction
#: rate is extrapolated towards it.
_TARGET_RESIDUAL = 1e-5


@dataclass(frozen=True)
class ProbeResult:
    """Measurements from probing one candidate partition count."""

    k: int
    probe_iters: int
    seconds_per_round: float
    contraction: float
    predicted_rounds: int
    predicted_seconds: float
    converged_during_probe: bool


@dataclass(frozen=True)
class AutotuneReport:
    """Outcome of the granularity search."""

    best_k: int
    probes: "tuple[ProbeResult, ...]"
    probe_seconds: float

    def ranking(self) -> "list[ProbeResult]":
        """Probes sorted by predicted total time (best first)."""
        return sorted(self.probes, key=lambda p: p.predicted_seconds)


def _estimate_contraction(residuals: Sequence[float]) -> float:
    """Geometric-mean per-round residual contraction from a probe run.

    The first residual is transient (it measures distance from the
    initial guess, not the iteration's asymptotic rate), so it is
    excluded when enough samples exist.
    """
    rs = [r for r in residuals if r > 0 and math.isfinite(r)]
    if len(rs) < 2:
        return 0.5  # no information: assume a moderate rate
    if len(rs) >= 3:
        rs = rs[1:]
    ratios = [b / a for a, b in zip(rs, rs[1:]) if a > 0]
    ratios = [min(r, 0.999) for r in ratios if r > 0]
    if not ratios:
        return 0.5
    log_mean = sum(math.log(r) for r in ratios) / len(ratios)
    return math.exp(log_mean)


def autotune_partitions(
    spec_factory: "Callable[[int], BlockSpec]",
    candidates: Sequence[int],
    *,
    probe_iters: int = 3,
) -> AutotuneReport:
    """Pick the partition count with the lowest predicted time-to-converge.

    Parameters
    ----------
    spec_factory:
        Builds a :class:`BlockSpec` for a given partition count (for the
        graph apps this typically partitions the graph and constructs
        the app spec).
    candidates:
        Partition counts to probe.
    probe_iters:
        Global iterations to execute per probe.  Each probe runs the
        eager driver (``DriverConfig(mode="eager")`` defaults) on a
        fresh Table I :class:`~repro.cluster.SimCluster`, and its
        contraction rate is extrapolated into the rounds a full run
        needs to reach a residual of 1e-5.

    Returns
    -------
    AutotuneReport
        Per-candidate measurements, the chosen count, and the total
        simulated probe cost.
    """
    if not candidates:
        raise ValueError("need at least one candidate partition count")
    if probe_iters < 2:
        raise ValueError("probe_iters must be >= 2 (rate estimation)")
    probe_cfg = DriverConfig(mode="eager", max_global_iters=probe_iters)

    probes: list[ProbeResult] = []
    total_probe_time = 0.0
    for k in candidates:
        spec = spec_factory(int(k))
        res = IterationLoop(BlockBackend(spec, cluster=SimCluster()),
                            probe_cfg).run()
        total_probe_time += res.sim_time
        per_round = res.sim_time / max(res.global_iters, 1)
        if res.converged:
            rounds = res.global_iters
            contraction = _estimate_contraction(res.residuals)
        else:
            contraction = _estimate_contraction(res.residuals)
            last = next((r for r in reversed(res.residuals)
                         if r > 0 and math.isfinite(r)), 1.0)
            if last <= _TARGET_RESIDUAL:
                rounds = res.global_iters
            else:
                extra = math.log(_TARGET_RESIDUAL / last) / math.log(contraction)
                rounds = res.global_iters + max(0, math.ceil(extra))
        probes.append(ProbeResult(
            k=int(k),
            probe_iters=res.global_iters,
            seconds_per_round=per_round,
            contraction=contraction,
            predicted_rounds=int(rounds),
            predicted_seconds=float(per_round * rounds),
            converged_during_probe=res.converged,
        ))

    best = min(probes, key=lambda p: p.predicted_seconds)
    return AutotuneReport(best_k=best.k, probes=tuple(probes),
                          probe_seconds=total_probe_time)
