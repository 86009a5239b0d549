"""Every metric the benchmark emits, by name: unit, direction, bound.

``BENCHMARK.json`` is generated from — and tested against — these
tables, so the names later issues cite exist in exactly one place.
"""

from __future__ import annotations

__all__ = ["RUN_SECONDS", "WORKLOAD_NAMES", "END_TO_END", "EXACT", "PER_LAYER",
           "SPAN_METRICS"]

#: The measured window every workload's repetition count is tuned to.
RUN_SECONDS = 17

#: The workloads, in the order ``--workload all`` runs them.
WORKLOAD_NAMES = ("engine-sweep-proc", "kv-eager-serial", "sim-figures",
                  "sim-faults")

#: name -> (unit, better, regression bound as a share of the parent median).
#: The timing bounds are measured, not guessed (README, "Where the
#: bounds come from"): the larger of ISSUE 12's rule (twice the widest
#: gap between any two runs of identical code, which ``selfcheck``
#: prints) and three times the widest quartile spread over ten seeds,
#: capped at the builder contract's maximum of 0.25 — which the host's
#: own speed regimes make both timing metrics hit.  The bounds of the
#: exact metrics only bound what a *seed* may change (the driver
#: compares runs of different seeds); ``compare`` and ``selfcheck``
#: hold them to bit equality per seed.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "job_s_p50": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.16),
    "global_iters": ("count", "lower", 0.05),
    "sim_seconds": ("sim_s", "lower", 0.05),
    "success_rate": ("ratio", "higher", 0.01),
    "output_digest_stable": ("ratio", "higher", 0.01),
}

#: Deterministic per seed: any difference is a behaviour change.
EXACT = ("global_iters", "sim_seconds", "success_rate", "output_digest_stable")

#: Span name -> the per-layer metric its self time feeds.
SPAN_METRICS = {
    "engine.runtime.run": "engine.runtime.run_ms",
    "core.state.materialise": "core.state.materialise_ms",
    "apps.local_solve": "apps.local_solve_ms",
    "core.loop.run_round": "core.loop.backend_self_ms",
    "core.loop.step": "core.loop.self_ms",
    "core.jobsched.step": "core.jobsched.step_self_ms",
    "cluster.cluster.phase": "cluster.cluster.phase_ms",
    "cluster.cluster.charge": "cluster.cluster.charge_ms",
    "cluster.statestore.round_trip": "cluster.statestore.round_trip_ms",
    "cluster.statestore.checkpoint": "cluster.statestore.checkpoint_ms",
    "core.async_backend.round": "core.async_backend.round_ms",
}

#: name -> (unit, better).  ``*_ms`` are mean milliseconds per global
#: round (a job's total divided by its ``global_iters``); a layer a
#: workload never enters reads 0.
PER_LAYER = {
    # engine, live
    "engine.runtime.run_ms": ("ms", "lower"),
    "engine.runtime.wait_ms": ("ms", "lower"),
    "engine.runtime.parallel_efficiency": ("ratio", "higher"),
    "engine.runtime.submit_bytes": ("B", "lower"),
    "engine.runtime.proc_over_serial": ("ratio", "lower"),
    "engine.runtime.driver_cpu_s": ("s", "lower"),
    "engine.task.worker_cpu_s": ("s", "lower"),
    # engine, staged replay
    "engine.task.map_task_ms": ("ms", "lower"),
    "engine.task.reduce_task_ms": ("ms", "lower"),
    "engine.columnar.route_combine_ms": ("ms", "lower"),
    "engine.columnar.group_ms": ("ms", "lower"),
    "engine.columnar.concat_ms": ("ms", "lower"),
    "engine.columnar.combine_ratio": ("ratio", "lower"),
    "engine.shm.export_take_ms": ("ms", "lower"),
    "engine.shm.segments": ("count", "lower"),
    "engine.shm.bytes": ("B", "lower"),
    "engine.shm.leaked_segments": ("count", "lower"),
    "engine.shuffle.add_ms": ("ms", "lower"),
    "engine.shuffle.seal_ms": ("ms", "lower"),
    "engine.shuffle.records": ("count", "lower"),
    "engine.shuffle.bytes": ("B", "lower"),
    "engine.replay.bitwise": ("ratio", "higher"),
    # core
    "core.gmap.map_body_ms": ("ms", "lower"),
    "core.loop.local_iters": ("count", "lower"),
    "core.state.materialise_ms": ("ms", "lower"),
    "core.loop.backend_self_ms": ("ms", "lower"),
    "core.loop.self_ms": ("ms", "lower"),
    "core.loop.round_ms_p50": ("ms", "lower"),
    "core.loop.round_ms_tail": ("ms", "lower"),
    "core.loop.round_tail_pct": ("%", "higher"),
    "core.loop.rounds_replayed": ("count", "lower"),
    "core.jobsched.step_self_ms": ("ms", "lower"),
    "core.async_backend.round_ms": ("ms", "lower"),
    "core.async_backend.max_staleness": ("count", "lower"),
    # apps
    "apps.local_solve_ms": ("ms", "lower"),
    # cluster
    "cluster.cluster.phase_ms": ("ms", "lower"),
    "cluster.cluster.charge_ms": ("ms", "lower"),
    "cluster.cluster.phases": ("count", "lower"),
    "cluster.cluster.backups": ("count", "lower"),
    "cluster.cluster.backups_won_ratio": ("ratio", "higher"),
    "cluster.cluster.wasted_sim_s": ("sim_s", "lower"),
    "cluster.accountant.conservation_err": ("sim_s", "lower"),
    "cluster.statestore.round_trip_ms": ("ms", "lower"),
    "cluster.statestore.checkpoint_ms": ("ms", "lower"),
    "cluster.statestore.bytes": ("B", "lower"),
    "cluster.statestore.tablet_splits": ("count", "lower"),
    "cluster.workerpool.node_deaths": ("count", "lower"),
    "cluster.workerpool.lost_map_outputs": ("count", "lower"),
    "cluster.workerpool.recovery_sim_s": ("sim_s", "lower"),
    # inputs
    "graph.generate_s": ("s", "lower"),
    "graph.partition_s": ("s", "lower"),
    "graph.cut_fraction": ("ratio", "lower"),
    # interpreter / tracing
    "gc.pause_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}
