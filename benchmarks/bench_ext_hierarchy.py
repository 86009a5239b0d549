"""Extension — hierarchy of synchronizations (§VIII future work).

    "Taking the configuration of the system into account, one may
    support a hierarchy of synchronizations."

This bench adds the rack level the paper sketches: partitions grouped
into racks run several cheap rack-local synchronization rounds per
(expensive) global round.  Expected: fewer global iterations and lower
total simulated time than the flat two-level eager scheme, with the
same fixed point.
"""

from __future__ import annotations

import numpy as np

from repro.apps.pagerank import PageRankBlockSpec
from repro.bench import get_graph, get_partition, graph_scale, make_cluster
from repro.core import (
    BlockBackend,
    DriverConfig,
    HierarchicalBackend,
    IterationLoop,
    make_racks,
)
from repro.util import ascii_table


def test_extension_hierarchical_synchronization(once):
    scale = graph_scale()
    g = get_graph("A", scale)
    k = max(4, int(round(400 * scale)))
    part = get_partition("A", scale, k)

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
        return rows, results

    rows, results = once(run)
    print()
    print(ascii_table(
        ["scheme", "global iters", "sim time (s)"],
        [[n, it, f"{t:.0f}"] for n, it, t in rows],
        title=f"Extension: hierarchical synchronization (Graph A, {k} partitions)"))

    flat = results["flat"]
    best = min((r for key, r in results.items() if key != "flat"),
               key=lambda r: r.sim_time)
    # same fixed point, fewer global syncs, lower time
    assert np.allclose(np.asarray(best.state), np.asarray(flat.state),
                       atol=1e-3)
    assert best.global_iters < flat.global_iters
    assert best.sim_time < flat.sim_time
