"""Ablation — eager scheduling on/off.

Partial synchronization and eager scheduling are separate mechanisms:
with eager scheduling off, local iterations still avoid the global
shuffle but run in lockstep across partitions (one scheduled phase per
local round), so per-round dispatch overhead multiplies and load
imbalance between partitions is not smoothed.  The paper's claim:
"Replacing global synchronizations with partial synchronizations also
allows us to schedule subsequent maps in an eager fashion.  This has
the important effect of smoothing load imbalances" (§I).  Scheduling
cannot change the iterates: the on and off runs end on equal ranks,
within 2x of a general run's distance to the true fixed point.
"""

from __future__ import annotations

import numpy as np

from repro.apps import pagerank_spec
from repro.bench import (
    get_graph,
    get_partition,
    graph_scale,
    make_cluster,
    true_ranks,
)
from repro.core import DriverConfig
from repro.util import ascii_table, max_abs_diff


def test_ablation_eager_scheduling(once):
    scale = graph_scale()
    g = get_graph("A", scale)
    k = max(2, int(round(400 * scale)))
    part = get_partition("A", scale, k)
    truth = true_ranks("A", scale)

    def run():
        out = {}
        for eager_sched in (True, False):
            cfg = DriverConfig(mode="eager", eager_schedule=eager_sched)
            res = pagerank_spec(g, part, config=cfg).run(make_cluster())
            out[eager_sched] = (res.global_iters, res.sim_time, res.state)
        general = pagerank_spec(g, part, config=DriverConfig(
            mode="general")).run(make_cluster())
        return out, max_abs_diff(general.state, truth)

    results, general_error = once(run)

    rows = [["on" if k_ else "off (lockstep local rounds)", it, f"{t:.0f}",
             f"{max_abs_diff(state, truth):.2e}"]
            for k_, (it, t, state) in results.items()]
    print()
    print(ascii_table(["eager scheduling", "global iters", "sim time (s)",
                       "answer error"],
                      rows, title=f"Ablation: eager scheduling (Graph A, {k} "
                                  f"partitions; general's answer error "
                                  f"{general_error:.2e})"))

    on_iters, on_time, on_state = results[True]
    off_iters, off_time, off_state = results[False]
    # scheduling policy cannot change the algorithm's iterates...
    assert on_iters == off_iters
    assert np.array_equal(on_state, off_state)
    # ...but eager scheduling must be strictly cheaper in time
    assert on_time < off_time
    # and the shared answer is as accurate as a general run's
    error = max_abs_diff(on_state, truth)
    assert error <= 2 * general_error, (error, general_error)
