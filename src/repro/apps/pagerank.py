"""PageRank: General and Eager formulations (§V-B of the paper).

The rank of a node is ``PR_d = (1 - chi) + chi * sum_{(s,d) in E}
PR_s / outdeg_s`` (the paper's eq. 1; damping ``chi = 0.85``, all ranks
initialised to 1, convergence when the infinity norm of the change drops
below 1e-5).

* **General** (§V-B.1): every global iteration performs one synchronous
  update — the paper's *competitive* baseline where each map operates on
  a complete partition rather than a single adjacency list.
* **Eager** (§V-B.2): each gmap iterates its partition's ranks to local
  convergence against frozen remote contributions, then one global
  synchronization propagates ranks across partitions.  Mathematically
  this is a block-Jacobi (asynchronous power-method) iteration: the fixed
  point is unchanged, the serial operation count is higher, and the
  number of *global* synchronizations is much lower — exactly the
  tradeoff of §II.

:class:`PageRankBlockSpec` is the simulator's spec (used by the
benchmark sweeps); :class:`PageRankKVSpec` is that spec plus the
record-at-a-time §IV API — lmap/lreduce/greduce — on the real engine.

:func:`pagerank_spec` describes the job; :func:`pagerank_reference` is
an independent dense power-iteration oracle.
"""

from __future__ import annotations

import numpy as np

from repro.apps._nodeblock import (
    NodeBlockSpec,
    NodeRowState,
    csr_fold,
    shared_split,
)
from repro.core import (
    AdaptiveSyncPolicy,
    AsyncMapReduceSpec,
    DriverConfig,
    resolve_block_backend,
)
from repro.graph import DiGraph, Partition

__all__ = [
    "PageRankBlockSpec",
    "PageRankKVSpec",
    "pagerank_spec",
    "pagerank_reference",
]


class PageRankBlockSpec(NodeBlockSpec):
    """PageRank over a :class:`~repro.graph.Partition`, state a flat
    rank vector.

    The local step works on two columns, ``(rank, ext)``: ``ext`` is
    the frozen sum of remote contributions over the incoming cut edges,
    and each local iteration is one damped Jacobi sweep over the
    partition's internal edges, ``rank = ((1-d) + d*ext) + d*contrib``,
    where ``contrib`` is one CSR mat-vec per part and ``(1-d) + d*ext``
    is computed once per solve.  In general mode
    (``max_local_iters == 1``) a single sweep makes the whole scheme the
    classic synchronous power iteration.
    """

    local_agg = "sum"
    #: The asynchronous power method tolerates mixed-round neighbour
    #: ranks (§VI: "PageRank ... relies on an asynchronous mat-vec");
    #: the combine overwrites disjoint slices, so arrival order is
    #: irrelevant.
    supports_async = True

    def __init__(self, graph: DiGraph, partition: Partition, *,
                 damping: float = 0.85, tol: float = 1e-5) -> None:
        if not 0.0 < damping < 1.0:
            raise ValueError(f"damping must be in (0, 1), got {damping}")
        if tol <= 0:
            raise ValueError("tol must be > 0")
        self.graph = graph
        self.partition = partition
        self.damping = damping
        self.tol = tol
        outdeg = graph.out_degree().astype(np.float64)
        # Dangling nodes contribute nothing (the paper's eq. 1 divides by
        # outlinks only for actual source nodes); avoid div-by-zero.
        self.inv_outdeg = np.where(outdeg > 0, 1.0 / np.maximum(outdeg, 1), 0.0)
        # Eq. 1 is a mat-vec whose edge weight is 1/outdeg[src]: split
        # that with the edges once, so it ships with the spec.
        # contrib[dst] = sum of rank[src] * w: rows are the target rows.
        src, dst, _ = graph.edge_arrays()
        self._blocks, self._fold = shared_split(
            self, "pagerank", graph, lambda: (src, dst, self.inv_outdeg[src]),
            into_target=True)

    def init_state(self) -> np.ndarray:
        """All nodes start with PageRank 1 (§V-B)."""
        return np.ones(self.graph.num_nodes, dtype=np.float64)

    def frozen_columns(self, b, remote):
        ext = np.zeros(len(b.nodes), dtype=np.float64)
        remote *= b.in_w
        np.add.at(ext, b.in_dst, remote)
        return (ext,)

    def block_step(self, b, mats, cols):
        fold = csr_fold(*mats)
        records = sum(m.nnz for m in mats)  # one per internal edge
        d, tol = self.damping, self.tol
        base = (1.0 - d) + d * cols[1]
        delta = np.empty(len(base))

        def step(x):
            acc = fold(x)
            acc *= d
            acc += base  # ((1-d) + d*ext) + d*acc: + commutes
            np.subtract(acc, x, out=delta)
            np.abs(delta, out=delta)
            return acc, records, bool(np.maximum.reduce(delta, initial=0.0) < tol)

        return step


# ----------------------------------------------------------------------
# Record-at-a-time (§IV API) implementation
# ----------------------------------------------------------------------

class PageRankKVSpec(NodeRowState, PageRankBlockSpec, AsyncMapReduceSpec):
    """:class:`PageRankBlockSpec` plus the paper's §IV functions, on the
    real engine (its state and emission: :class:`~repro.apps._nodeblock.
    NodeRowState`; damping and tolerance at the defaults, 0.85 and 1e-5).

    Hashtable layout per partition: ``node -> (rank, ext_contrib,
    internal_adj, external_adj, inv_outdeg)`` where ``ext_contrib`` is
    the frozen sum of remote contributions from the previous global
    round and the adjacency splits are the partition's edge blocks (the
    off-line locality-enhancing step).  Only the per-record oracle
    (:class:`~repro.core.per_record`) builds that table.

    Boundary records: a node's ``("rank", rank)`` from its owning
    partition and one ``("c", rank/outdeg)`` per outgoing cut edge, so
    ``greduce`` is a per-key **sum**, and the map-side ``"sum"``
    combiner (§V-B's partial aggregation) pre-folds each partition's
    contributions to one row per remote target before the shuffle.
    """

    own_tag = "rank"
    cut_tag = "c"

    def __init__(self, graph: DiGraph, partition: Partition) -> None:
        super().__init__(graph, partition)

    def cut_messages(self, part_id: int, x: np.ndarray):
        b = self._blocks[part_id]
        return b.cut_src, b.cut_dst, x[b.cut_src] * b.cut_w

    def table_records(self, part_id: int, rows: np.ndarray) -> list:
        b = self._blocks[part_id]
        n = len(b.nodes)
        internal = self._per_row(b.int_src, b.nodes[b.int_dst].tolist(), n)
        external = self._per_row(b.cut_src, b.cut_dst.tolist(), n)
        inv_out = self.inv_outdeg[b.nodes].tolist()
        return [(u, (rank, ext, i, e, w)) for u, (rank, ext), i, e, w
                in zip(b.nodes.tolist(), rows.tolist(), internal, external, inv_out)]

    # -- the four user functions ------------------------------------------
    def lmap(self, key, value, ctx) -> None:
        rank, ext, internal, external, inv_out = value
        # Push rank to internal neighbours; carry the record to the
        # reducer so it can rebuild the node entry.
        ctx.emit_local_intermediate(key, ("rec", value))
        for v in internal:
            ctx.emit_local_intermediate(v, ("c", rank * inv_out))

    def lreduce(self, key, values, ctx) -> None:
        rec = None
        contrib = 0.0
        for tag, payload in values:
            if tag == "rec":
                rec = payload
            else:
                contrib += payload
        if rec is None:
            return  # contribution to a node outside this partition's table
        _, ext, internal, external, inv_out = rec
        d = self.damping
        new_rank = ((1.0 - d) + d * ext) + d * contrib
        ctx.emit_local(key, (new_rank, ext, internal, external, inv_out))

    def greduce(self, key, values, ctx) -> None:
        rank = 0.0
        ext = 0.0
        for tag, payload in values:
            if tag == "rank":
                rank = payload
            else:  # "c": remote contribution for the *next* round
                ext += payload
        ctx.emit(key, (rank, ext))

    def gmap_emit(self, table: dict, part_id: int) -> list:
        out = []
        for u, (rank, ext, internal, external, inv_out) in table.items():
            out.append((u, ("rank", rank)))
            for v in external:
                out.append((v, ("c", rank * inv_out)))
        return out

    def local_converged(self, prev_table: dict, curr_table: dict) -> bool:
        delta = 0.0
        for u, rec in curr_table.items():
            delta = max(delta, abs(rec[0] - prev_table[u][0]))
        return delta < self.tol


# ----------------------------------------------------------------------
# The job description
# ----------------------------------------------------------------------

def pagerank_spec(
    graph: DiGraph,
    partition: Partition,
    *,
    mode: str = "eager",
    damping: float = 0.85,
    tol: float = 1e-5,
    config: "DriverConfig | None" = None,
    sync_policy: "AdaptiveSyncPolicy | None" = None,
    name: "str | None" = None,
    backend: str = "block",
    staleness: "int | None" = 0,
) -> "JobSpec":
    """PageRank with the General or Eager formulation, on the
    simulator's block path, as a :class:`~repro.core.session.JobSpec`:
    ``.run(cluster)`` runs it alone, :meth:`~repro.core.Session.submit`
    schedules it with others.  The final ranks are
    ``np.asarray(result.state)``.  (An engine run is
    ``IterationLoop(EngineBackend(PageRankKVSpec(graph, partition)),
    config).run()``.)

    Parameters
    ----------
    graph, partition:
        Input graph and its locality-enhancing partition.
    mode:
        ``"general"`` (baseline) or ``"eager"`` (partial sync).
    damping, tol:
        Eq. 1's chi and the inf-norm convergence bound.
    config:
        Full driver configuration; overrides ``mode`` when given.
    sync_policy:
        Optional :class:`~repro.core.AdaptiveSyncPolicy` retuning the
        local-iteration budget per round.
    backend, staleness:
        ``backend="async"`` (or any nonzero ``staleness``) runs the
        block path without a per-round barrier — see
        :class:`~repro.core.AsyncBackend`.
    """
    from repro.core.session import JobSpec

    cfg = config if config is not None else DriverConfig(mode=mode)
    return JobSpec(
        name=name if name is not None else "pagerank",
        config=cfg,
        sync_policy=sync_policy,
        make_backend=lambda cluster: resolve_block_backend(
            PageRankBlockSpec(graph, partition, damping=damping, tol=tol),
            backend=backend, staleness=staleness, cluster=cluster),
    )


def pagerank_reference(graph: DiGraph, *, damping: float = 0.85,
                       tol: float = 1e-5, max_iters: int = 10_000) -> np.ndarray:
    """Independent oracle: dense synchronous power iteration of eq. 1."""
    n = graph.num_nodes
    src, dst, _ = graph.edge_arrays()
    outdeg = graph.out_degree().astype(np.float64)
    inv_out = np.where(outdeg > 0, 1.0 / np.maximum(outdeg, 1), 0.0)
    x = np.ones(n, dtype=np.float64)
    for _ in range(max_iters):
        contrib = np.zeros(n, dtype=np.float64)
        np.add.at(contrib, dst, x[src] * inv_out[src])
        x_new = (1.0 - damping) + damping * contrib
        if np.abs(x_new - x).max() < tol:
            return x_new
        x = x_new
    return x
