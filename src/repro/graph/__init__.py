"""Graph substrate: CSR digraphs, generators, partitioning, power-law fits.

This package provides everything the paper's graph workloads need:

* :class:`~repro.graph.digraph.DiGraph` — CSR-backed weighted digraph.
* :mod:`~repro.graph.generators` — preferential-attachment inputs
  (Table II) and random edge weights.
* :mod:`~repro.graph.partition` — the locality-enhancing partitioners
  (multilevel Metis substitute and baselines) and the
  :class:`~repro.graph.partition.Partition` object with boundary/cut
  structure.
* :mod:`~repro.graph.powerlaw` — degree-distribution fitting (Table II's
  conformity check).
"""

from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    GRAPH_A_SPEC,
    GRAPH_B_SPEC,
    attach_random_weights,
    make_paper_graph,
    preferential_attachment,
)
from repro.graph.metrics import (
    GraphSummary,
    PartitionQuality,
    partition_quality,
    summarize_graph,
)
from repro.graph.partition import (
    PARTITIONERS,
    EdgeBlock,
    Partition,
    bfs_partition,
    chunk_partition,
    hash_partition,
    join_blocks,
    multilevel_partition,
    partition_graph,
    random_partition,
    split_edges,
)
from repro.graph.powerlaw import (
    PowerLawFit,
    fit_power_law,
    hub_spoke_ratio,
)

__all__ = [
    "DiGraph",
    "preferential_attachment",
    "make_paper_graph",
    "GRAPH_A_SPEC",
    "GRAPH_B_SPEC",
    "attach_random_weights",
    "Partition",
    "EdgeBlock",
    "split_edges",
    "join_blocks",
    "partition_graph",
    "multilevel_partition",
    "bfs_partition",
    "chunk_partition",
    "hash_partition",
    "random_partition",
    "PARTITIONERS",
    "PowerLawFit",
    "fit_power_law",
    "hub_spoke_ratio",
    "GraphSummary",
    "summarize_graph",
    "PartitionQuality",
    "partition_quality",
]
