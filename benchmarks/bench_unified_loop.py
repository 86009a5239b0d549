"""Benchmark — the unified iteration core's adaptive sync policy.

Not a paper figure: this exercises the seam the unified
:class:`~repro.core.loop.IterationLoop` opened.  The paper fixes
``max_local_iters`` for a whole run; with one loop and per-round
budgets, :class:`~repro.core.AdaptiveSyncPolicy` retunes the
local-iteration budget every round from the observed residual
contraction — starting shallow (cheap rounds while the residual is
still dropping fast) and deepening only when global synchronizations
stop paying for themselves.

Expected on PageRank: the adaptive run needs no more global
synchronizations than the fixed eager configuration while performing
substantially fewer total local iterations (it stops over-solving
against stale remote state), at competitive simulated time — and far
ahead of the general (one-local-step) baseline on both axes.  Each
answer is checked: general, eager and adaptive all lie within 2x of the
general run's distance to the true fixed point.
"""

from __future__ import annotations

import numpy as np

from repro.apps.pagerank import PageRankBlockSpec
from repro.bench import (
    get_graph,
    get_partition,
    graph_scale,
    make_cluster,
    true_ranks,
)
from repro.core import (
    AdaptiveSyncPolicy,
    BlockBackend,
    DriverConfig,
    IterationLoop,
)
from repro.util import ascii_table, max_abs_diff


def test_unified_loop_adaptive_sync(once):
    scale = graph_scale()
    g = get_graph("A", scale)
    k = max(2, int(round(100 * scale)))
    part = get_partition("A", scale, k)
    truth = true_ranks("A", scale)

    def run():
        def one(cfg, policy=None):
            backend = BlockBackend(PageRankBlockSpec(g, part),
                                   cluster=make_cluster())
            return IterationLoop(backend, cfg, sync_policy=policy).run()

        policy = AdaptiveSyncPolicy()
        return {
            "general": one(DriverConfig(mode="general")),
            "eager": one(DriverConfig(mode="eager")),
            "adaptive": one(DriverConfig(mode="eager"), policy),
        }, policy.budgets

    results, budgets = once(run)
    errors = {name: max_abs_diff(res.state, truth)
              for name, res in results.items()}

    rows = [
        [name, res.global_iters, res.total_local_iters, f"{res.sim_time:.0f}",
         f"{errors[name]:.2e}"]
        for name, res in results.items()
    ]
    print()
    print(ascii_table(
        ["sync discipline", "global iters", "local iters", "sim time (s)",
         "answer error"],
        rows,
        title=f"Unified loop: adaptive sync policy (Graph A, {k} partitions)"))
    print(f"adaptive budgets per round: {budgets}")

    gen, eag, ada = results["general"], results["eager"], results["adaptive"]
    # same fixed point everywhere
    assert np.allclose(np.asarray(ada.state), np.asarray(eag.state), atol=1e-3)
    assert gen.converged and eag.converged and ada.converged
    # adaptive syncs far less than the baseline and wastes less local
    # work than the fixed eager budget, at competitive simulated time
    assert ada.global_iters < gen.global_iters
    assert ada.total_local_iters < eag.total_local_iters
    assert ada.sim_time < gen.sim_time
    assert ada.sim_time <= eag.sim_time * 1.10
    # the policy actually adapted (budgets are not constant)
    assert len(set(budgets)) > 1
    # every discipline is as accurate as a general run
    for name, error in errors.items():
        assert error <= 2 * errors["general"], (name, error, errors)
