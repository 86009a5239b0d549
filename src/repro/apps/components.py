"""Connected components via label propagation (broader applicability, §V-E).

The paper lists connected components among the "class of applications
over sparse graphs" its approach extends to ("Shortest Path represents a
class of applications over sparse graphs that includes minimum spanning
trees, transitive closure, and connected components", §VI).  This module
is that extension: min-label propagation over the *undirected* view of
the graph, with the same General (one hop per global iteration) vs Eager
(local propagation to a fixed point per partition) pairing as SSSP.
Its local step is ``run_local_block`` over the spec's hooks (a gather
and ``np.minimum.at`` per iteration), on int64 labels that stay int64
(``local_solve`` is the base class's).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps._nodeblock import NodeBlockSpec
from repro.cluster import SimCluster
from repro.core import BlockBackend, DriverConfig, IterationLoop, IterativeResult
from repro.core.localmr import scatter_fold
from repro.graph import DiGraph, Partition, split_edges

__all__ = [
    "ComponentsBlockSpec",
    "ComponentsResult",
    "connected_components",
    "components_spec",
    "components_reference",
]


@dataclass
class ComponentsResult:
    """Component labels plus run statistics."""

    labels: np.ndarray
    num_components: int
    global_iters: int
    converged: bool
    sim_time: float
    result: IterativeResult


class ComponentsBlockSpec(NodeBlockSpec):
    """Min-label propagation over undirected edges, partitioned.

    The local step works on two int64 columns, ``(label, floor)``:
    ``floor`` is the smallest label offered over incoming cut edges, a
    constant floor every propagation applies — so, as in SSSP, one local
    iteration is one synchronous round whatever the partitioning.
    """

    local_agg = "min"

    def __init__(self, graph: DiGraph, partition: Partition) -> None:
        self.graph = graph
        self.partition = partition
        ptr, nbr, w = graph.undirected_csr()
        src = np.repeat(np.arange(graph.num_nodes), np.diff(ptr))
        self._blocks = split_edges(src, nbr, w, partition)

    def init_state(self) -> np.ndarray:
        """Every node starts labelled with its own id."""
        return np.arange(self.graph.num_nodes, dtype=np.int64)

    def frozen_columns(self, b, state):
        # num_nodes, above every label, where no cut edge lands
        floor = np.full(len(b.nodes), self.graph.num_nodes, dtype=np.int64)
        np.minimum.at(floor, b.in_dst, state[b.in_src])
        return (floor,)

    def local_fold(self, part_id: int, cols):
        b = self._blocks[part_id]
        return scatter_fold(self.local_agg, cols[0], b.int_dst, cols[0][b.int_src])

    def lreduce_block(self, part_id: int, cols, acc: np.ndarray):
        np.minimum(cols[0], acc, out=acc)
        np.minimum(acc, cols[1], out=acc)
        return acc, cols[1]

    def local_converged_block(self, prev_cols, cols) -> bool:
        return bool((cols[0] == prev_cols[0]).all())

    def global_converged(self, prev, curr):
        residual = float(np.abs(curr - prev).max()) if len(prev) else 0.0
        return residual == 0.0, residual


def connected_components(
    graph: DiGraph,
    partition: Partition,
    *,
    mode: str = "eager",
    cluster: "SimCluster | None" = None,
) -> ComponentsResult:
    """Weakly-connected component labels, General or Eager formulation."""
    spec = ComponentsBlockSpec(graph, partition)
    res = IterationLoop(BlockBackend(spec, cluster=cluster),
                        DriverConfig(mode=mode)).run()
    labels = np.asarray(res.state)
    return ComponentsResult(
        labels=labels,
        num_components=int(len(np.unique(labels))),
        global_iters=res.global_iters,
        converged=res.converged,
        sim_time=res.sim_time,
        result=res,
    )


def components_spec(
    graph: DiGraph,
    partition: Partition,
    *,
    mode: str = "eager",
    name: "str | None" = None,
) -> "JobSpec":
    """A submittable connected-components job for
    :meth:`~repro.core.Session.submit`; the final labels are
    ``np.asarray(handle.result.state)``."""
    from repro.core.session import JobSpec

    return JobSpec(
        name=name if name is not None else "components",
        config=DriverConfig(mode=mode),
        make_backend=lambda session: BlockBackend(
            ComponentsBlockSpec(graph, partition),
            cluster=session.cluster),
    )


def components_reference(graph: DiGraph) -> np.ndarray:
    """Independent oracle: SciPy's connected_components, min-label form."""
    import scipy.sparse as sp
    import scipy.sparse.csgraph as csgraph

    n = graph.num_nodes
    src, dst, _ = graph.edge_arrays()
    mat = sp.csr_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
    _, comp = csgraph.connected_components(mat, directed=False)
    # Relabel each component by its smallest member so labels match the
    # min-label propagation's fixed point exactly.
    min_label = np.full(comp.max() + 1 if n else 0, n, dtype=np.int64)
    np.minimum.at(min_label, comp, np.arange(n))
    return min_label[comp]
