"""Benchmark — hot-key skew vs tablet count in the online state store.

Not a paper figure: this exercises the partitioned
:class:`~repro.cluster.statestore.OnlineStateStore`, whose tablets
serve key ranges in parallel and whose round time is the **hottest
tablet**.  The scalar model this subsystem replaced could not express
the question this bench answers: *does the §VIII online store still
beat the DFS when the update distribution is skewed?*

Workload: a synthetic partition-scoped spec whose per-round,
per-partition state-update bytes follow either a uniform or a
Zipf-like distribution (same total either way).  Swept over stores:

* the DFS baseline (aggregate charge — skew-blind),
* the online store with 4 / 16 / 64 tablets under both distributions.

Expected shape, asserted below:

* uniform distribution: the online store wins big at any tablet count;
* Zipf skew concentrates the bytes on few tablets, so the hot tablet
  bottlenecks the round and **erodes the win** at low tablet counts;
* raising the tablet count shards the hot key range thinner and
  **restores the win**;
* every skewed round's state time equals its hottest tablet's time
  (strict domination — the acceptance pin).

The store prices the state path and must not touch the iterates: every
run ends converged at state ``0.0`` after exactly ``ROUNDS`` rounds,
whichever store it charged, and ``answer_ok`` per configuration records
that.  Emits per-config simulated state seconds and ``answer_ok`` into
``BENCH_state_store.json`` (shared with ``bench_ext_state_store.py``).
"""

from __future__ import annotations

import pytest

from conftest import record
from repro.bench import make_cluster
from repro.cluster import DFSStateStore, OnlineStateStore
from repro.core import (
    BlockBackend,
    BlockSpec,
    DriverConfig,
    IterationLoop,
    LocalSolveReport,
)
from repro.util import ascii_table

#: Per-round aggregate state bytes (large enough that tablet bandwidth,
#: not per-op latency, dominates).
TOTAL_BYTES = 64 << 20
PARTITIONS = 16
ROUNDS = 6
TABLET_COUNTS = (4, 16, 64)


def uniform_weights(parts: int) -> "list[float]":
    return [1.0 / parts] * parts


def zipf_weights(parts: int, s: float = 1.2) -> "list[float]":
    raw = [1.0 / (i + 1) ** s for i in range(parts)]
    total = sum(raw)
    return [w / total for w in raw]


class SkewedStateSpec(BlockSpec):
    """Minimal iterative workload with a controllable per-partition
    state-update distribution; compute is negligible by construction so
    the sweep isolates the state path."""

    partition_scoped_state = True

    def __init__(self, weights: "list[float]", *,
                 total_bytes: int = TOTAL_BYTES, rounds: int = ROUNDS) -> None:
        self.weights = weights
        self.total_bytes = total_bytes
        self.rounds = rounds

    def num_partitions(self) -> int:
        return len(self.weights)

    def init_state(self) -> float:
        return float(self.rounds)

    def local_solve(self, part_id, state, *, max_local_iters):
        return LocalSolveReport(
            partition=part_id, updates=None, local_iters=1,
            per_iter_ops=[1.0], shuffle_bytes=64,
            update_nbytes=int(self.total_bytes * self.weights[part_id]))

    def global_combine(self, state, reports):
        return state - 1.0, float(len(reports)), 0

    def global_converged(self, prev, curr):
        return curr <= 0.0, float(curr)

    def state_nbytes(self, state) -> int:
        return self.total_bytes


def _run_config(weights, store):
    """State seconds of one run, and whether it ended on the right
    answer: converged at state ``0.0`` after exactly ``ROUNDS`` rounds."""
    cluster = make_cluster()
    cfg = DriverConfig(mode="eager", state_store=store,
                       checkpoint_every=None, max_global_iters=ROUNDS)
    res = IterationLoop(BlockBackend(SkewedStateSpec(weights), cluster=cluster),
                        cfg).run()
    secs = sum(e.end - e.start for e in cluster.trace.events
               if e.phase.endswith(":state"))
    ok = res.converged and res.state == 0.0 and res.global_iters == ROUNDS
    return secs, ok


def test_state_skew_hot_tablet_bottleneck(once):
    def run():
        out = {}
        out["dfs"] = _run_config(uniform_weights(PARTITIONS), DFSStateStore())
        for dist_name, weights in (("uniform", uniform_weights(PARTITIONS)),
                                   ("zipf", zipf_weights(PARTITIONS))):
            for tablets in TABLET_COUNTS:
                out[f"online/{dist_name}/t{tablets}"] = _run_config(
                    weights, OnlineStateStore(tablets))
        return out

    runs = once(run)
    results = {name: secs for name, (secs, _) in runs.items()}
    answer_ok = {f"{name}_answer_ok": float(ok)
                 for name, (_, ok) in runs.items()}

    print()
    rows = [["DFS (skew-blind)", "-", f"{results['dfs']:.0f}", "-"]]
    for dist in ("uniform", "zipf"):
        for t in TABLET_COUNTS:
            secs = results[f"online/{dist}/t{t}"]
            rows.append([f"online ({dist})", t, f"{secs:.0f}",
                         f"{results['dfs'] / secs:.1f}x"])
    print(ascii_table(
        ["state store", "tablets", "state time (s)", "win vs DFS"],
        rows, title="State-store skew: hot tablets vs tablet count "
                    f"({PARTITIONS} partitions, {ROUNDS} rounds)"))
    record("BENCH_state_store.json", "state_skew", {**results, **answer_ok})
    assert all(answer_ok.values()), answer_ok

    dfs = results["dfs"]
    # uniform: the online store wins at any tablet count
    for t in TABLET_COUNTS:
        assert results[f"online/uniform/t{t}"] < dfs
    for t in TABLET_COUNTS:
        uni = results[f"online/uniform/t{t}"]
        zipf = results[f"online/zipf/t{t}"]
        # Zipf skew bottlenecks the hot tablet: the win erodes
        assert zipf > uni
    # ... and more tablets restore it (monotone recovery)
    zipf_times = [results[f"online/zipf/t{t}"] for t in TABLET_COUNTS]
    assert zipf_times[0] > zipf_times[1] > zipf_times[2]
    # erosion shrinks as tablets grow: zipf/uniform ratio falls
    ratios = [results[f"online/zipf/t{t}"] / results[f"online/uniform/t{t}"]
              for t in TABLET_COUNTS]
    assert ratios[0] > ratios[-1]


def test_round_time_is_hottest_tablet(once):
    """Acceptance pin: with Zipf skew, every round's state time equals
    the hottest tablet's write+read seconds — strict domination."""
    def run():
        store = OnlineStateStore(num_tablets=8)
        cluster = make_cluster()
        cfg = DriverConfig(mode="eager", state_store=store,
                           checkpoint_every=None, max_global_iters=ROUNDS)
        IterationLoop(
            BlockBackend(SkewedStateSpec(zipf_weights(PARTITIONS)),
                         cluster=cluster), cfg).run()
        events = [e for e in cluster.trace.events
                  if e.phase.endswith(":state")]
        return store, events

    store, events = once(run)
    assert len(events) == ROUNDS
    # the recorded per-tablet seconds of the LAST round trip match the
    # last charged state event, and its max IS the charge
    last = events[-1]
    assert last.end - last.start == pytest.approx(
        max(store.last_round_tablet_seconds))
    # the hot tablet (key range of the heavy partitions) dominates
    hottest = max(range(store.num_tablets),
                  key=lambda t: store.tablet_bytes[t])
    assert hottest == 0  # Zipf weight 0 is the heaviest key range
    assert store.imbalance() > 2.0
