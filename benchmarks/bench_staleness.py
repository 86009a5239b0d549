"""Extension — convergence vs staleness bound on the no-barrier backend.

    "The class of asynchronous (or chaotic) iterative algorithms ...
    relax the synchronization requirements" (§I); the paper's eager
    discipline still drains a barrier every global round.  The
    :class:`~repro.core.AsyncBackend` removes it entirely: partitions
    publish through :class:`~repro.cluster.OnlineStateStore` tablets and
    consume whatever neighbour versions have arrived, subject to a
    bounded-staleness knob ``S`` (``S=0`` — barrier semantics; ``S=None``
    — pure chaotic relaxation).

This bench sweeps ``S`` over PageRank, SSSP, and block-Jacobi on the
same partitioned input and reports the trade the bound buys:

* **rounds to fixed point** — relaxed bounds fold mixed-version
  neighbour state, so contraction-style kernels (PageRank, Jacobi) pay
  extra rounds; monotone min-plus SSSP *gains* rounds because late
  partitions consume same-round publishes from early finishers.
* **simulated seconds** — every ``S >= 1`` round drops the per-round job
  startup, reduce wave, and barrier drain, so per-round sync cost falls
  sharply; total time wins whenever the extra rounds cost less than the
  barriers they replace.
* **accuracy** — bounded ``S`` reaches the synchronous fixed point
  (within tolerance); unbounded chaos can stall short of it, which is
  what the :class:`~repro.core.DivergenceDetector` exists to catch.

Emits rounds and simulated seconds per bound into
``BENCH_staleness.json`` so the trade-off curve is machine-readable
across PRs.
"""

from __future__ import annotations

import numpy as np

from conftest import record
from repro.apps import (
    jacobi_spec,
    make_diagonally_dominant_system,
    pagerank_spec,
    sssp_spec,
)
from repro.bench import get_graph, get_partition, graph_scale, make_cluster
from repro.cluster import OnlineStateStore
from repro.core import DriverConfig
from repro.util import ascii_table

#: The staleness bounds swept, barrier -> chaotic.
BOUNDS = (0, 1, 2, 4, None)

#: Max |rank - sync rank| tolerated for bounded-staleness PageRank (the
#: CI gate: the relaxed schedules must still land on the synchronous
#: fixed point).  Sync itself sits ~3e-5 from the true eigenvector at
#: tol=1e-5, so 1e-3 is loose enough for schedule noise and tight
#: enough to catch a backend that drifts.
FIXED_POINT_TOL = 1e-3


def _label(bound: "int | None") -> str:
    return "chaotic" if bound is None else f"S={bound}"


def _config() -> DriverConfig:
    return DriverConfig(mode="eager",
                        state_store=OnlineStateStore(num_tablets=8))


def test_staleness_sweep(once):
    scale = graph_scale()
    g = get_graph("A", scale)
    gw = get_graph("A", scale, weighted=True)
    k = max(2, int(round(100 * scale)))
    part = get_partition("A", scale, k)
    part_w = get_partition("A", scale, k, weighted=True)
    system = make_diagonally_dominant_system(part, seed=1)

    def run():
        out = {}
        for bound in BOUNDS:
            pr = pagerank_spec(g, part, backend="async", staleness=bound,
                               config=_config()).run(make_cluster())
            ss = sssp_spec(gw, part_w, backend="async", staleness=bound,
                           config=_config()).run(make_cluster())
            ja = jacobi_spec(system, part, backend="async", staleness=bound,
                             config=_config()).run(make_cluster())
            out[bound] = {
                "pagerank": (pr.global_iters, pr.sim_time, pr.state),
                "sssp": (ss.global_iters, ss.sim_time),
                "jacobi": (ja.global_iters, ja.sim_time,
                           system.residual_norm(ja.state)),
            }
        return out

    results = once(run)
    print()
    print(ascii_table(
        ["bound", "PR rounds", "PR (s)", "SSSP rounds", "SSSP (s)",
         "Jacobi rounds", "Jacobi (s)"],
        [[_label(b),
          r["pagerank"][0], f"{r['pagerank'][1]:.0f}",
          r["sssp"][0], f"{r['sssp'][1]:.0f}",
          r["jacobi"][0], f"{r['jacobi'][1]:.0f}"]
         for b, r in results.items()],
        title=f"Convergence vs staleness bound (Graph A, {k} partitions)"))

    record("BENCH_staleness.json", "staleness_seconds", {
        f"{app} {_label(b)}": r[app][1]
        for b, r in results.items() for app in ("pagerank", "sssp", "jacobi")})
    record("BENCH_staleness.json", "staleness_rounds", {
        f"{app} {_label(b)}": float(r[app][0])
        for b, r in results.items() for app in ("pagerank", "sssp", "jacobi")})

    barrier = results[0]
    for app in ("pagerank", "sssp", "jacobi"):
        rounds0, secs0 = barrier[app][0], barrier[app][1]
        per_round0 = secs0 / rounds0
        for bound in BOUNDS[1:]:
            rounds, secs = results[bound][app][0], results[bound][app][1]
            # The whole point of dropping the barrier: each no-barrier
            # round costs less than a barrier round (no per-round job
            # startup, reduce wave, or sync drain).
            assert secs / rounds < per_round0, (app, bound)
        # PageRank/Jacobi are contraction maps: folding staler neighbour
        # state slows contraction, so looser bounds never need fewer
        # rounds than the tightest relaxed bound.
        if app != "sssp":
            assert results[4][app][0] >= results[1][app][0], app
            assert results[None][app][0] >= results[1][app][0], app

    # Monotone min-plus SSSP *gains* rounds from same-round propagation.
    assert results[1]["sssp"][0] <= barrier["sssp"][0]

    # CI gate: bounded staleness still lands on the synchronous fixed
    # point; unbounded chaos is exempt (that is the detector's job).
    sync_ranks = results[0]["pagerank"][2]
    for bound in (1, 2, 4):
        err = float(np.abs(results[bound]["pagerank"][2] - sync_ranks).max())
        assert err < FIXED_POINT_TOL, (bound, err)
        assert results[bound]["jacobi"][2] < 1e-3, bound
