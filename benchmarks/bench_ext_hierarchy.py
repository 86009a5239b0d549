"""Extension — hierarchy of synchronizations (§VIII future work).

    "Taking the configuration of the system into account, one may
    support a hierarchy of synchronizations."

This bench adds the rack level the paper sketches: partitions grouped
into racks run several cheap rack-local synchronization rounds per
(expensive) global round.  Expected: fewer global iterations and lower
total simulated time than the flat two-level eager scheme, with the
same fixed point: flat eager and every rack layout land within 2x of a
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
    BlockBackend,
    DriverConfig,
    HierarchicalBackend,
    IterationLoop,
    make_racks,
)
from repro.util import ascii_table, max_abs_diff


def test_extension_hierarchical_synchronization(once):
    scale = graph_scale()
    g = get_graph("A", scale)
    k = max(4, int(round(400 * scale)))
    part = get_partition("A", scale, k)
    truth = true_ranks("A", scale)

    def run():
        flat = IterationLoop(
            BlockBackend(PageRankBlockSpec(g, part), cluster=make_cluster()),
            DriverConfig(mode="eager")).run()
        rows = [("flat (2-level eager)", flat.global_iters, flat.sim_time)]
        results = {"flat": flat}
        for racks, inner in ((4, 2), (4, 4)):
            hier = IterationLoop(
                HierarchicalBackend(
                    PageRankBlockSpec(g, part), make_racks(k, racks),
                    inner_rounds=inner,
                    cluster=make_cluster()),
                DriverConfig(mode="eager")).run()
            rows.append((f"3-level: {racks} racks x {inner} inner rounds",
                         hier.global_iters, hier.sim_time))
            results[f"h{racks}x{inner}"] = hier
        general = IterationLoop(
            BlockBackend(PageRankBlockSpec(g, part), cluster=make_cluster()),
            DriverConfig(mode="general")).run()
        return rows, results, max_abs_diff(general.state, truth)

    rows, results, general_error = once(run)
    errors = {key: max_abs_diff(r.state, truth) for key, r in results.items()}
    print()
    print(ascii_table(
        ["scheme", "global iters", "sim time (s)", "answer error"],
        [[n, it, f"{t:.0f}", f"{e:.2e}"]
         for (n, it, t), e in zip(rows, errors.values())],
        title=f"Extension: hierarchical synchronization (Graph A, {k} "
              f"partitions; general's answer error {general_error:.2e})"))

    flat = results["flat"]
    best = min((r for key, r in results.items() if key != "flat"),
               key=lambda r: r.sim_time)
    # same fixed point, fewer global syncs, lower time
    assert np.allclose(np.asarray(best.state), np.asarray(flat.state),
                       atol=1e-3)
    assert best.global_iters < flat.global_iters
    assert best.sim_time < flat.sim_time
    # flat eager and every rack layout are as accurate as a general run
    for key, error in errors.items():
        assert error <= 2 * general_error, (key, error, general_error)
