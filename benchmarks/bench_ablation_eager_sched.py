"""Ablation — eager scheduling on/off.

Partial synchronization and eager scheduling are separate mechanisms:
with eager scheduling off, local iterations still avoid the global
shuffle but run in lockstep across partitions (one scheduled phase per
local round), so per-round dispatch overhead multiplies and load
imbalance between partitions is not smoothed.  The paper's claim:
"Replacing global synchronizations with partial synchronizations also
allows us to schedule subsequent maps in an eager fashion.  This has
the important effect of smoothing load imbalances" (§I).
"""

from __future__ import annotations

from repro.apps import pagerank_spec
from repro.bench import get_graph, get_partition, graph_scale, make_cluster
from repro.core import DriverConfig
from repro.util import ascii_table


def test_ablation_eager_scheduling(once):
    scale = graph_scale()
    g = get_graph("A", scale)
    k = max(2, int(round(400 * scale)))
    part = get_partition("A", scale, k)

    def run():
        out = {}
        for eager_sched in (True, False):
            cfg = DriverConfig(mode="eager", eager_schedule=eager_sched)
            res = pagerank_spec(g, part, config=cfg).run(make_cluster())
            out[eager_sched] = (res.global_iters, res.sim_time)
        return out

    results = once(run)

    rows = [["on" if k_ else "off (lockstep local rounds)", it, f"{t:.0f}"]
            for k_, (it, t) in results.items()]
    print()
    print(ascii_table(["eager scheduling", "global iters", "sim time (s)"],
                      rows, title=f"Ablation: eager scheduling (Graph A, {k} partitions)"))

    on_iters, on_time = results[True]
    off_iters, off_time = results[False]
    # scheduling policy cannot change the algorithm's iterates...
    assert on_iters == off_iters
    # ...but eager scheduling must be strictly cheaper in time
    assert on_time < off_time
