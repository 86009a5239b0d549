"""Connected components via label propagation (broader applicability, §V-E).

The paper lists connected components among the "class of applications
over sparse graphs" its approach extends to ("Shortest Path represents a
class of applications over sparse graphs that includes minimum spanning
trees, transitive closure, and connected components", §VI).  This module
is that extension: min-label propagation over the *undirected* view of
the graph, with the same General (one hop per global iteration) vs Eager
(local propagation to a fixed point per partition) pairing as SSSP.
Its local solve is ``run_local_block`` over the spec's ``block_step``
(a gather and ``np.minimum.at`` per iteration, the part's edge arrays
and floor bound once per solve), on int64 labels that stay int64
(``local_solve`` is the base class's).
"""

from __future__ import annotations

import numpy as np

from repro.apps._nodeblock import NodeBlockSpec, shared_split
from repro.core import BlockBackend, DriverConfig
from repro.core.localmr import scatter_fold
from repro.graph import DiGraph, Partition

__all__ = [
    "ComponentsBlockSpec",
    "components_spec",
    "components_reference",
]


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

        def edges() -> tuple:
            ptr, nbr, w = graph.undirected_csr()
            return np.repeat(np.arange(graph.num_nodes), np.diff(ptr)), nbr, w

        self._blocks, _ = shared_split(self, "components", graph, edges)

    def init_state(self) -> np.ndarray:
        """Every node starts labelled with its own id."""
        return np.arange(self.graph.num_nodes, dtype=np.int64)

    def frozen_columns(self, b, remote):
        # num_nodes, above every label, where no cut edge lands
        floor = np.full(len(b.nodes), self.graph.num_nodes, dtype=np.int64)
        np.minimum.at(floor, b.in_dst, remote)
        return (floor,)

    def block_step(self, b, mats, cols):
        src, dst, floor = b.int_src, b.int_dst, cols[1]
        fold = scatter_fold("min", cols[0])

        def step(x):
            acc, records = fold(dst, x[src])
            np.minimum(x, acc, out=acc)
            np.minimum(acc, floor, out=acc)
            return acc, records, bool((acc == x).all())

        return step


def components_spec(
    graph: DiGraph,
    partition: Partition,
    *,
    mode: str = "eager",
    name: "str | None" = None,
) -> "JobSpec":
    """Weakly-connected component labels, General or Eager formulation,
    as a :class:`~repro.core.session.JobSpec`: ``.run(cluster)`` runs it
    alone, :meth:`~repro.core.Session.submit` schedules it with others.
    The final labels are ``np.asarray(result.state)``."""
    from repro.core.session import JobSpec

    return JobSpec(
        name=name if name is not None else "components",
        config=DriverConfig(mode=mode),
        make_backend=lambda cluster: BlockBackend(
            ComponentsBlockSpec(graph, partition), cluster=cluster),
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
