#!/usr/bin/env python
"""Financial-transaction shortest paths (the paper's SSSP motivation).

"Shortest Path algorithms are used to compute the shortest paths and
distances between nodes in directed graphs.  The graphs are often large
and distributed (for example, networks of financial transactions,
citation graphs) and require computation of results in reasonable
(interactive) times." (§V-C)

This example models a transaction network (accounts = nodes, transfers
= weighted edges where weight ~ settlement latency), finds the fastest
settlement route from a clearing-house account to every other account
with Eager SSSP, and cross-checks against Dijkstra.

Run:  python examples/transaction_paths.py
"""

from __future__ import annotations

import numpy as np

from repro.apps import sssp_reference, sssp_spec
from repro.cluster import SimCluster
from repro.graph import (
    attach_random_weights,
    make_paper_graph,
    multilevel_partition,
)
from repro.util import ascii_table

CLEARING_HOUSE = 0  # source account


def main() -> None:
    # A transaction network shares the web graph's shape: heavy-tailed
    # degrees (exchanges/brokers are hubs) and community structure
    # (regional banking clusters).
    graph = attach_random_weights(
        make_paper_graph("A", scale=0.01, seed=0),
        low=1.0, high=10.0, seed=42,  # settlement latencies in hours
    )
    partition = multilevel_partition(graph, 8, seed=0)
    print(f"Transaction network: {graph.num_nodes} accounts, "
          f"{graph.num_edges} transfer edges\n")

    rows = []
    results = {}
    for mode in ("general", "eager"):
        res = sssp_spec(graph, partition, source=CLEARING_HOUSE,
                        mode=mode).run(SimCluster())
        results[mode] = res
        reached = int(np.isfinite(res.state).sum())
        rows.append([mode, res.global_iters, f"{res.sim_time:,.0f}", reached])
    print(ascii_table(
        ["mode", "global iterations", "simulated time (s)", "accounts reached"],
        rows, title="Single-source settlement latency (cf. Figs 6-7)"))

    exact = sssp_reference(graph, source=CLEARING_HOUSE)
    assert np.allclose(results["eager"].state, exact)
    assert np.allclose(results["general"].state, exact)

    finite = results["eager"].state[np.isfinite(results["eager"].state)]
    print(f"\nBoth modes match Dijkstra exactly.  Median settlement latency: "
          f"{np.median(finite):.1f}h; worst reachable account: {finite.max():.1f}h; "
          f"speedup {results['general'].sim_time / results['eager'].sim_time:.1f}x.")


if __name__ == "__main__":
    main()
