"""Single-Source Shortest Path: General and Eager formulations (§V-C).

The MapReduce formulation maintains each node's best known distance from
the source.  In the **general** implementation every global iteration
relaxes every edge once (a synchronous Bellman-Ford round): "each map
operates on one node ... and for every destination node v, emits the sum
of the shortest distance to u and the weight of the edge; each reduce
finds the minimum of the different paths" (§V-C.1, with the competitive
partition-input baseline).  In the **eager** implementation each gmap
relaxes the paths *within its sub-graph to a fixed point* before the
global synchronization accounts for cross-partition edges (§V-C.1,
"computing shortest distances of nodes using the paths within the
sub-graph asynchronously").

This is the min-plus (tropical) analogue of the PageRank block-Jacobi
scheme; distances are monotonically non-increasing, so both formulations
terminate at the exact Dijkstra distances — which the tests verify
against a SciPy oracle.  :class:`SsspBlockSpec` is the simulator's
spec; :class:`SsspKVSpec` is that spec plus the §IV functions, on the
real engine.
"""

from __future__ import annotations

import math

import numpy as np

from repro.apps._nodeblock import NodeBlockSpec, NodeRowState, shared_split
from repro.core import (
    AdaptiveSyncPolicy,
    AsyncMapReduceSpec,
    DriverConfig,
    resolve_block_backend,
)
from repro.core.localmr import scatter_fold
from repro.graph import DiGraph, Partition

__all__ = [
    "SsspBlockSpec",
    "SsspKVSpec",
    "sssp_spec",
    "sssp_reference",
]


class SsspBlockSpec(NodeBlockSpec):
    """SSSP over a partition, state a flat distance vector.

    The local step works on two columns, ``(dist, ext)``: ``ext`` is the
    best distance offered over incoming cut edges, a constant floor each
    relaxation applies.  So a single local iteration is exactly one
    synchronous Bellman-Ford round over *all* edges (general mode must
    be partition-independent), while iterating to a fixed point resolves
    every intra-partition path (eager).
    """

    local_agg = "min"
    #: Min-plus relaxation is monotone (distances only improve) and the
    #: combine is a commutative min-fold, the textbook async-safe shape:
    #: stale reads only delay relaxations, never corrupt them.
    supports_async = True

    def __init__(self, graph: DiGraph, partition: Partition, *,
                 source: int = 0) -> None:
        if not 0 <= source < graph.num_nodes:
            raise ValueError(f"source {source} out of range")
        if graph.num_edges and graph.out_w.min() < 0:
            raise ValueError("SSSP requires non-negative edge weights")
        self.graph = graph
        self.partition = partition
        self.source = source
        self._blocks, _ = shared_split(self, "sssp", graph, graph.edge_arrays)

    def init_state(self) -> np.ndarray:
        """Source at distance 0, everything else unreached (inf), §V-C."""
        dist = np.full(self.graph.num_nodes, np.inf, dtype=np.float64)
        dist[self.source] = 0.0
        return dist

    def frozen_columns(self, b, remote):
        ext = np.full(len(b.nodes), np.inf, dtype=np.float64)
        remote += b.in_w
        np.minimum.at(ext, b.in_dst, remote)
        return (ext,)

    def block_step(self, b, mats, cols):
        src, dst, w, ext = b.int_src, b.int_dst, b.int_w, cols[1]
        fold = scatter_fold("min", cols[0])

        def step(x):
            # Gather, then add in place: one edge-sized temporary per
            # relaxation, not two.
            cand = x[src]
            live = np.isfinite(cand)  # an unreached source emits nothing
            cand += w
            rows = dst
            if not live.all():
                rows, cand = rows[live], cand[live]
            acc, records = fold(rows, cand)
            np.minimum(x, acc, out=acc)
            np.minimum(acc, ext, out=acc)
            # inf == inf: unreached rows compare equal (no distance is -inf)
            return acc, records, bool((acc == x).all())

        return step


# ----------------------------------------------------------------------
# Record-at-a-time (§IV API) implementation
# ----------------------------------------------------------------------

def _sssp_columnar_finish(keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Vectorised greduce epilogue: fold the cross-edge floor into the
    distance column (``dist = min(dist, ext_best)``).  Top-level so the
    process-pool executors can pickle the reduce spec."""
    rows = rows.copy()
    rows[:, 0] = np.minimum(rows[:, 0], rows[:, 1])
    return rows


class SsspKVSpec(NodeRowState, SsspBlockSpec, AsyncMapReduceSpec):
    """:class:`SsspBlockSpec` plus the paper's §IV functions, on the
    real engine (its state and emission: :class:`~repro.apps._nodeblock.
    NodeRowState`).

    Hashtable layout: ``node -> (dist, ext_best, internal_adj,
    external_adj)`` with weighted adjacency lists split at partition
    boundaries; ``ext_best`` is the best known distance via cross edges,
    frozen during local iterations.  Only the per-record oracle
    (:class:`~repro.core.per_record`) builds that table.

    Boundary records: a node's ``("dist", dist)`` and one ``("d", dist +
    w)`` relaxation candidate per outgoing cut edge of a reached node,
    reduced by a per-key **min** (exact, so the columnar run is
    bit-identical to the classic path) with a vectorised epilogue
    folding the cross-edge floor into the distance.  The map-side
    ``"min"`` combiner ships one row per remote target per partition.
    """

    own_tag = "dist"
    cut_tag = "d"

    def cut_messages(self, part_id: int, x: np.ndarray):
        b = self._blocks[part_id]
        live = np.isfinite(x[b.cut_src])  # an unreached source emits nothing
        src = b.cut_src[live]
        return src, b.cut_dst[live], x[src] + b.cut_w[live]

    def table_records(self, part_id: int, rows: np.ndarray) -> list:
        b = self._blocks[part_id]
        n = len(b.nodes)
        internal = self._per_row(b.int_src, list(zip(
            b.nodes[b.int_dst].tolist(), b.int_w.tolist())), n)
        external = self._per_row(b.cut_src, list(zip(
            b.cut_dst.tolist(), b.cut_w.tolist())), n)
        return [(u, (dist, ext, i, e)) for u, (dist, ext), i, e
                in zip(b.nodes.tolist(), rows.tolist(), internal, external)]

    def lmap(self, key, value, ctx) -> None:
        dist, ext, internal, external = value
        ctx.emit_local_intermediate(key, ("rec", value))
        if math.isfinite(dist):
            for v, w in internal:
                ctx.emit_local_intermediate(v, ("d", dist + w))

    def lreduce(self, key, values, ctx) -> None:
        rec = None
        best = float("inf")
        for tag, payload in values:
            if tag == "rec":
                rec = payload
            else:
                best = min(best, payload)
        if rec is None:
            return
        dist, ext, internal, external = rec
        new_dist = min(dist, best, ext)
        ctx.emit_local(key, (new_dist, ext, internal, external))

    def greduce(self, key, values, ctx) -> None:
        dist = float("inf")
        ext = float("inf")
        for tag, payload in values:
            if tag == "dist":
                dist = min(dist, payload)
            else:  # "d": cross-edge candidate for the next round
                ext = min(ext, payload)
        ctx.emit(key, (min(dist, ext), ext))

    def gmap_emit(self, table: dict, part_id: int) -> list:
        out = []
        for u, (dist, ext, internal, external) in table.items():
            out.append((u, ("dist", dist)))
            if math.isfinite(dist):
                for v, w in external:
                    out.append((v, ("d", dist + w)))
        return out

    def local_converged(self, prev_table: dict, curr_table: dict) -> bool:
        for u, rec in curr_table.items():
            prev = prev_table[u][0]
            if rec[0] != prev and not (math.isinf(rec[0]) and math.isinf(prev)):
                return False
        return True

    def columnar_reduce(self):
        from repro.engine import ColumnarReduce

        return ColumnarReduce("min", finish=_sssp_columnar_finish)


# ----------------------------------------------------------------------
# The job description
# ----------------------------------------------------------------------

def sssp_spec(
    graph: DiGraph,
    partition: Partition,
    *,
    source: int = 0,
    mode: str = "eager",
    config: "DriverConfig | None" = None,
    sync_policy: "AdaptiveSyncPolicy | None" = None,
    name: "str | None" = None,
    backend: str = "block",
    staleness: "int | None" = 0,
) -> "JobSpec":
    """Single-source shortest distances, General or Eager formulation,
    on the simulator's block path, as a
    :class:`~repro.core.session.JobSpec`: ``.run(cluster)`` runs it
    alone, :meth:`~repro.core.Session.submit` schedules it with others.
    The final distances are ``np.asarray(result.state)``.  (An engine
    run is ``IterationLoop(EngineBackend(SsspKVSpec(graph, partition)),
    config).run()``.)

    ``config`` overrides ``mode`` when given.  ``backend="async"`` (or
    any nonzero ``staleness``) runs it without a per-round barrier — see
    :class:`~repro.core.AsyncBackend`.
    """
    from repro.core.session import JobSpec

    cfg = config if config is not None else DriverConfig(mode=mode)
    return JobSpec(
        name=name if name is not None else "sssp",
        config=cfg,
        sync_policy=sync_policy,
        make_backend=lambda cluster: resolve_block_backend(
            SsspBlockSpec(graph, partition, source=source),
            backend=backend, staleness=staleness, cluster=cluster),
    )


def sssp_reference(graph: DiGraph, *, source: int = 0) -> np.ndarray:
    """Independent oracle: SciPy's Dijkstra on the same weighted graph.

    Parallel edges are collapsed to their minimum weight (which is what
    any shortest-path computation effectively does).
    """
    import scipy.sparse as sp
    import scipy.sparse.csgraph as csgraph

    n = graph.num_nodes
    src, dst, w = graph.edge_arrays()
    if len(src) == 0:
        out = np.full(n, np.inf)
        out[source] = 0.0
        return out
    # sparse matrix sums duplicates; take the min explicitly instead.
    order = np.lexsort((w, dst, src))
    s, d, ww = src[order], dst[order], w[order]
    first = np.empty(len(s), dtype=bool)
    first[0] = True
    first[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
    mat = sp.csr_matrix((ww[first], (s[first], d[first])), shape=(n, n))
    return csgraph.dijkstra(mat, directed=True, indices=source)
