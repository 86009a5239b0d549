"""Tail-latency extension — speculation and tablet auto-splitting.

    "heterogeneity in cloud infrastructures presents unique
    opportunities" (§I); the flip side is that one slow machine or one
    hot key range sets the pace of every barrier the paper's iterative
    jobs drain.

Two mechanisms, two gates:

* **Speculative re-execution** (LATE): with one node 4x slow, the
  driver launches backup copies of the late tasks on fast nodes; first
  result wins.  Gates: speculation *strictly* improves the iterative
  PageRank makespan under the injected straggler — by >= 25% on a
  compute-bound cost model — and the converged ranks are bitwise
  identical (speculation changes time, never values).  The real
  engine's racing attempts are additionally pinned oracle-identical on
  both the object and the columnar path.
* **Tablet auto-splitting**: a Zipf-skewed state write load pins one
  :class:`~repro.cluster.OnlineStateStore` tablet, burning the win the
  online store has over DFS round trips under uniform load.  Gate:
  load-triggered splitting restores at least *half* of that
  uniform-load win.

Emits makespans and p50/p99 round times into ``BENCH_stragglers.json``
so the tail-latency trajectory is machine-readable across PRs, with an
``answer_ok`` per configuration: the ranks lie within 2x of the
failure-free run's distance to the true fixed point, and the engine's
raced outputs equal the oracle's.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from conftest import record
from repro.apps.pagerank import pagerank_reference, pagerank_spec
from repro.bench import get_graph, get_partition, graph_scale
from repro.cluster import (
    DFSStateStore,
    EC2_DEFAULTS,
    OnlineStateStore,
    SimCluster,
    ec2_nodes,
)
from repro.core import DriverConfig
from repro.engine import (
    FaultPlan,
    Job,
    JobConf,
    MapReduceRuntime,
    StragglerPlan,
)
from repro.util import ascii_table

#: Compute-bound cost model: 10x the per-op charges of the EC2
#: defaults, so phase compute (where a 4x-slow node actually bites)
#: dominates the per-round fixed costs.  With the stock constants a
#: round is ~2/3 job-startup + barrier, and Amdahl caps *any*
#: straggler mitigation below the gate regardless of scheduler quality.
COMPUTE_BOUND = replace(EC2_DEFAULTS,
                        map_op_seconds=1e-4,
                        reduce_op_seconds=1e-4,
                        local_op_seconds=2.5e-5)

#: The injected heterogeneity: node 0 runs everything 4x slower.
STRAGGLERS = StragglerPlan(node_slowdown={0: 4.0})

#: Minimum whole-run makespan reduction speculation must deliver on the
#: straggler cluster (the acceptance gate).
MIN_SPECULATION_GAIN = 0.25

#: Fraction of the uniform-load online-store win auto-splitting must
#: retain under Zipf skew.
MIN_SPLIT_RETENTION = 0.5


def _cluster(stragglers=None) -> SimCluster:
    return SimCluster(ec2_nodes(8), COMPUTE_BOUND, stragglers=stragglers)


def _config(speculate: bool) -> DriverConfig:
    return DriverConfig(speculate=speculate,
                        state_store=lambda: OnlineStateStore(8))


def _percentiles(history) -> "tuple[float, float]":
    times = [r.sim_seconds for r in history]
    return (float(np.percentile(times, 50)), float(np.percentile(times, 99)))


# ----------------------------------------------------------------------
# Speculation: simulated iterative PageRank under a 4x-slow node
# ----------------------------------------------------------------------

def test_speculation_kills_the_straggler_tail(once):
    scale = graph_scale()
    g = get_graph("A", scale)
    part = get_partition("A", scale, max(2, int(round(100 * scale))))

    def run():
        uniform = pagerank_spec(g, part, config=_config(False)).run(_cluster())
        plain = pagerank_spec(g, part,
                              config=_config(False)).run(_cluster(STRAGGLERS))
        spec = pagerank_spec(g, part,
                             config=_config(True)).run(_cluster(STRAGGLERS))
        return uniform, plain, spec

    uniform, plain, spec = once(run)
    ranks = pagerank_reference(g, tol=1e-13)     # the true fixed point
    failure_free = np.abs(uniform.state - ranks).max()

    rows = []
    out = {}
    for label, res in (("uniform", uniform), ("straggler", plain),
                       ("straggler+speculation", spec)):
        out[f"{label}_answer_ok"] = float(
            np.abs(res.state - ranks).max() <= 2 * failure_free)
        p50, p99 = _percentiles(res.history)
        backups = sum(r.backups for r in res.history)
        won = sum(r.backups_won for r in res.history)
        wasted = sum(r.wasted_seconds for r in res.history)
        rows.append([label, f"{res.sim_time:.1f}", f"{p50:.2f}",
                     f"{p99:.2f}", backups, won, f"{wasted:.1f}"])
        out.update({f"{label}_makespan_s": res.sim_time,
                    f"{label}_round_p50_s": p50,
                    f"{label}_round_p99_s": p99,
                    f"{label}_backups": backups,
                    f"{label}_backups_won": won,
                    f"{label}_wasted_s": wasted})
    print(ascii_table(
        ["config", "makespan (s)", "round p50", "round p99",
         "backups", "won", "wasted (s)"], rows))
    gain = 1.0 - spec.sim_time / plain.sim_time
    out["speculation_gain"] = gain
    print(f"speculation gain: {gain:.1%} "
          f"(gate: >= {MIN_SPECULATION_GAIN:.0%})")
    record("BENCH_stragglers.json", "pagerank_straggler", out)

    assert all(out[f"{label}_answer_ok"] == 1.0 for label in
               ("uniform", "straggler", "straggler+speculation")), out
    # Gate 1a: strict improvement under injected stragglers.
    assert spec.sim_time < plain.sim_time
    # Gate 1b: the acceptance bar — one node 4x slow, >= 25% off.
    assert gain >= MIN_SPECULATION_GAIN
    # Gate 1c: time changed, values did not.
    assert np.array_equal(plain.state, spec.state)
    assert sum(r.backups_won for r in spec.history) >= 1
    # Speculation on the healthy cluster must not regress it.
    healthy_spec = pagerank_spec(g, part, config=_config(True)).run(_cluster())
    assert healthy_spec.sim_time <= uniform.sim_time * 1.01


# ----------------------------------------------------------------------
# Speculation: the real engine's racing attempts stay oracle-identical
# ----------------------------------------------------------------------

def _obj_map(key, value, ctx):
    for k, v in value:
        ctx.emit(k, v)


def _col_map(key, value, ctx):
    keys, values = value
    ctx.emit_block(keys, values)


def test_engine_racing_is_bitwise_oracle_identical(once):
    rng = np.random.default_rng(17)
    obj_splits = [[(m, [(int(k), float(v)) for k, v in
                        zip(rng.integers(0, 60, 300), rng.random(300))])]
                  for m in range(4)]
    col_splits = [[(m, (rng.integers(0, 400, 3000), rng.random(3000)))]
                  for m in range(4)]

    def run_path(splits, map_fn, speculate):
        plan = (FaultPlan(stalls={("map", 1): 0.4})
                if speculate else FaultPlan.none())
        with MapReduceRuntime("threads", workers=3, speculate=speculate,
                              fault_plan=plan) as rt:
            return rt.run(Job(map_fn, "sum", combine_fn="sum",
                              conf=JobConf(num_reducers=3)), splits)

    def run():
        return {
            "object": (run_path(obj_splits, _obj_map, True).output,
                       run_path(obj_splits, _obj_map, False).output),
            "columnar": (run_path(col_splits, _col_map, True).output,
                         run_path(col_splits, _col_map, False).output),
        }

    outs = once(run)
    record("BENCH_stragglers.json", "engine_racing", {
        f"{path}_answer_ok": float(raced == oracle)
        for path, (raced, oracle) in outs.items()})
    for path, (raced, oracle) in outs.items():
        assert raced == oracle, f"{path} path diverged under speculation"
    print("engine racing: object and columnar outputs bitwise identical")


# ----------------------------------------------------------------------
# Auto-split: Zipf-hot tablets subdivide until the win comes back
# ----------------------------------------------------------------------

#: 16 partitions, Zipf(1.1)-distributed state bytes, same total as the
#: uniform vector so DFS (which prices totals) is a fixed baseline.
NUM_PARTITIONS = 16
ROUND_TOTAL_BYTES = 64 * 2 ** 20
ROUNDS = 30


def _byte_vectors():
    uniform = [ROUND_TOTAL_BYTES / NUM_PARTITIONS] * NUM_PARTITIONS
    w = 1.0 / np.arange(1, NUM_PARTITIONS + 1) ** 1.1
    zipf = list(ROUND_TOTAL_BYTES * w / w.sum())
    return uniform, zipf


def _store_makespan(store, vec) -> float:
    return sum(store.round_trip(vec, cost_model=EC2_DEFAULTS)
               for _ in range(ROUNDS))


def test_autosplit_restores_the_online_win(once):
    uniform, zipf = _byte_vectors()
    threshold = 4 * ROUND_TOTAL_BYTES // NUM_PARTITIONS

    def run():
        return {
            "dfs": _store_makespan(DFSStateStore(), uniform),
            "online_uniform": _store_makespan(OnlineStateStore(8), uniform),
            "online_zipf_frozen": _store_makespan(OnlineStateStore(8), zipf),
            "online_zipf_split": _store_makespan(
                OnlineStateStore(8, split_threshold=threshold,
                                 max_tablets=64), zipf),
        }

    t = once(run)
    win_uniform = t["dfs"] - t["online_uniform"]
    win_frozen = t["dfs"] - t["online_zipf_frozen"]
    win_split = t["dfs"] - t["online_zipf_split"]
    rows = [[k, f"{v:.1f}"] for k, v in t.items()]
    rows.append(["win retained (frozen)", f"{win_frozen / win_uniform:.1%}"])
    rows.append(["win retained (split)", f"{win_split / win_uniform:.1%}"])
    print(ascii_table(["config", "state seconds / retention"], rows))
    record("BENCH_stragglers.json", "zipf_autosplit", {
        **t,
        "win_uniform_s": win_uniform,
        "win_retained_frozen": win_frozen / win_uniform,
        "win_retained_split": win_split / win_uniform,
    })

    assert win_uniform > 0, "online store must beat DFS under uniform load"
    # Skew must actually hurt the frozen map (else the gate is vacuous)
    assert t["online_zipf_frozen"] > t["online_uniform"]
    # Gate 2: splitting restores >= half the uniform-load win.
    assert win_split > win_frozen
    assert win_split >= MIN_SPLIT_RETENTION * win_uniform
