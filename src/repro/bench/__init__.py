"""Benchmark harness: sweeps, caching, and report formatting for
every table and figure of the paper (see DESIGN.md's experiment index).
"""

from repro.bench.harness import (
    KMEANS_SSE_RATIO,
    PAPER_KMEANS_PARTITIONS,
    PAPER_KMEANS_THRESHOLDS,
    PAPER_PARTITION_COUNTS,
    SweepPoint,
    SweepResult,
    check_answers,
    get_graph,
    get_partition,
    graph_scale,
    kmeans_rows,
    kmeans_sweep,
    make_cluster,
    pagerank_sweep,
    report_sweep,
    scaled_partitions,
    speedup_summary,
    sssp_sweep,
    true_ranks,
)

__all__ = [
    "PAPER_PARTITION_COUNTS",
    "PAPER_KMEANS_THRESHOLDS",
    "PAPER_KMEANS_PARTITIONS",
    "KMEANS_SSE_RATIO",
    "SweepPoint",
    "SweepResult",
    "check_answers",
    "graph_scale",
    "kmeans_rows",
    "scaled_partitions",
    "get_graph",
    "get_partition",
    "pagerank_sweep",
    "sssp_sweep",
    "kmeans_sweep",
    "make_cluster",
    "report_sweep",
    "speedup_summary",
    "true_ranks",
]
