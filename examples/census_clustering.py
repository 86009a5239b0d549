#!/usr/bin/env python
"""Census clustering: the paper's K-Means workload (§V-D).

Clusters a (synthetic stand-in for the) 1990 US Census sample into
demographic groups with General and Eager K-Means across convergence
thresholds — the Figure 8/9 experiment — and reports the clustering
quality (within-cluster SSE) to show Eager's solutions are comparable
while paying far fewer global synchronizations.

Run:  python examples/census_clustering.py
"""

from __future__ import annotations

from repro.apps import kmeans_spec, sse
from repro.cluster import SimCluster
from repro.data import census_sample
from repro.util import ascii_table

ROWS = 20_000       # scaled from the paper's ~200K sample
CLUSTERS = 8
PARTITIONS = 52     # the paper's fixed partition count for Figs 8-9
THRESHOLDS = (0.1, 0.01, 0.001)


def main() -> None:
    points = census_sample(ROWS, noise=0.35, num_profiles=12, seed=0)
    print(f"Census sample: {points.shape[0]} rows x {points.shape[1]} "
          f"attributes, k={CLUSTERS}, {PARTITIONS} partitions\n")

    rows = []
    for thr in THRESHOLDS:
        gen = kmeans_spec(points, CLUSTERS, mode="general", threshold=thr,
                          num_partitions=PARTITIONS, seed=3).run(SimCluster())
        eag = kmeans_spec(points, CLUSTERS, mode="eager", threshold=thr,
                          num_partitions=PARTITIONS, seed=3).run(SimCluster())
        rows.append([
            thr,
            gen.global_iters, eag.global_iters,
            f"{gen.sim_time:,.0f}", f"{eag.sim_time:,.0f}",
            f"{sse(points, gen.state):,.0f}",
            f"{sse(points, eag.state):,.0f}",
        ])
    print(ascii_table(
        ["threshold", "general iters", "eager iters",
         "general time (s)", "eager time (s)", "general SSE", "eager SSE"],
        rows, title="K-Means: General vs Eager across thresholds (cf. Figs 8-9)"))

    print("\nEager clusters the same data in a fraction of the global "
          "iterations (the paper reports <1/3), with comparable SSE; its "
          "convergence check adds Yom-Tov & Slonim oscillation detection "
          "and the points are re-partitioned across gmaps every few "
          "iterations to avoid local optima.")


if __name__ == "__main__":
    main()
