"""Connected components via label propagation (broader applicability, §V-E).

The paper lists connected components among the "class of applications
over sparse graphs" its approach extends to ("Shortest Path represents a
class of applications over sparse graphs that includes minimum spanning
trees, transitive closure, and connected components", §VI).  This module
is that extension: min-label propagation over the *undirected* view of
the graph, with the same General (one hop per global iteration) vs Eager
(local propagation to a fixed point per partition) pairing as SSSP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster import SimCluster
from repro.core import (
    BlockBackend,
    BlockSpec,
    DriverConfig,
    IterationLoop,
    IterativeResult,
    LocalSolveReport,
)
from repro.graph import DiGraph, Partition, split_edges

__all__ = [
    "ComponentsBlockSpec",
    "ComponentsResult",
    "connected_components",
    "components_spec",
    "components_reference",
]

RECORD_BYTES = 16


@dataclass
class ComponentsResult:
    """Component labels plus run statistics."""

    labels: np.ndarray
    num_components: int
    global_iters: int
    converged: bool
    sim_time: float
    result: IterativeResult


class ComponentsBlockSpec(BlockSpec):
    """Min-label propagation over undirected edges, partitioned."""

    #: Each partition owns a disjoint node slice of the state vector.
    partition_scoped_state = True

    def __init__(self, graph: DiGraph, partition: Partition) -> None:
        self.graph = graph
        self.partition = partition
        ptr, nbr, w = graph.undirected_csr()
        src = np.repeat(np.arange(graph.num_nodes), np.diff(ptr))
        self._blocks = split_edges(src, nbr, w, partition)

    def num_partitions(self) -> int:
        return self.partition.k

    def init_state(self) -> np.ndarray:
        """Every node starts labelled with its own id."""
        return np.arange(self.graph.num_nodes, dtype=np.int64)

    def local_solve(self, part_id: int, state: np.ndarray, *,
                    max_local_iters: int) -> LocalSolveReport:
        b = self._blocks[part_id]
        nodes, i_src, i_dst, e_src, e_dst = (
            b.nodes, b.int_src, b.int_dst, b.in_src, b.in_dst)
        if len(nodes) == 0:
            return LocalSolveReport(partition=part_id, updates=(nodes, nodes),
                                    local_iters=0, per_iter_ops=[],
                                    shuffle_bytes=0, update_nbytes=0)
        # As in SSSP: the frozen cross-edge labels are a constant floor
        # applied inside each relaxation, so one local iteration is one
        # synchronous propagation round regardless of the partitioning.
        x0 = x = state[nodes]
        ext_floor = np.full(len(nodes), self.graph.num_nodes, dtype=np.int64)
        if len(e_src):
            np.minimum.at(ext_floor, e_dst, state[e_src])
        per_iter_ops: list[float] = []
        iters = 0
        while iters < max_local_iters:
            x_new = np.minimum(x, ext_floor)
            if len(i_src):
                np.minimum.at(x_new, i_dst, x[i_src])
            per_iter_ops.append(float(len(i_src) + len(nodes)))
            iters += 1
            changed = bool(np.any(x_new < x))
            x = x_new
            if not changed:
                break
        records = len(b.cut_src) + len(nodes)
        if max_local_iters == 1:
            records += len(i_src)
        # Frontier-driven state traffic, like SSSP: only labels lowered
        # this round are rewritten through the state store.
        changed = int(np.count_nonzero(x < x0))
        return LocalSolveReport(partition=part_id, updates=(nodes, x),
                                local_iters=iters, per_iter_ops=per_iter_ops,
                                shuffle_bytes=records * RECORD_BYTES,
                                update_nbytes=changed * 8)

    def global_combine(self, state, reports):
        new_state = state.copy()
        records = 0
        for r in reports:
            nodes, x = r.updates
            # Fancy indexing yields a copy, so assign the elementwise min
            # back rather than using an out= view that would be discarded.
            new_state[nodes] = np.minimum(new_state[nodes], x)
            records += r.shuffle_bytes // RECORD_BYTES
        return new_state, float(records), 0

    def global_converged(self, prev, curr):
        residual = float(np.abs(curr - prev).max()) if len(prev) else 0.0
        return residual == 0.0, residual

    def state_nbytes(self, state) -> int:
        return int(np.asarray(state).nbytes)


def connected_components(
    graph: DiGraph,
    partition: Partition,
    *,
    mode: str = "eager",
    cluster: "SimCluster | None" = None,
    config: "DriverConfig | None" = None,
) -> ComponentsResult:
    """Weakly-connected component labels, General or Eager formulation."""
    cfg = config if config is not None else DriverConfig(mode=mode)
    spec = ComponentsBlockSpec(graph, partition)
    res = IterationLoop(BlockBackend(spec, cluster=cluster), cfg).run()
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
    config: "DriverConfig | None" = None,
    name: "str | None" = None,
) -> "JobSpec":
    """A submittable connected-components job for
    :meth:`~repro.core.Session.submit`; the final labels are
    ``np.asarray(handle.result.state)``."""
    from repro.core.session import JobSpec

    cfg = config if config is not None else DriverConfig(mode=mode)
    return JobSpec(
        name=name if name is not None else "components",
        config=cfg,
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
