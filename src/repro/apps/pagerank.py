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

Two specs share that math, and one local step, through one base class:
:class:`PageRankBlockSpec` (the simulator's, used by the benchmark
sweeps) and :class:`PageRankKVSpec` (the record-at-a-time §IV API —
lmap/lreduce/greduce — on the real engine).

:func:`pagerank` is the high-level entry point; :func:`pagerank_reference`
is an independent dense power-iteration oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps._nodeblock import NodeBlockSpec, sum_fold_matrices
from repro.cluster import SimCluster
from repro.core import (
    AdaptiveSyncPolicy,
    AsyncMapReduceSpec,
    DriverConfig,
    IterationLoop,
    IterativeResult,
    resolve_block_backend,
)
from repro.core.localmr import xs_columns
from repro.graph import DiGraph, Partition, split_edges

__all__ = [
    "PageRankBlockSpec",
    "PageRankKVSpec",
    "PageRankResult",
    "pagerank",
    "pagerank_spec",
    "pagerank_reference",
]


@dataclass
class PageRankResult:
    """Ranks plus run statistics."""

    ranks: np.ndarray
    global_iters: int
    converged: bool
    sim_time: float
    result: IterativeResult


class _PageRank:
    """What both PageRank specs share.

    The block-level local step (``local_agg``, ``local_fold`` and the
    ``*_block`` hooks, contract in ``docs/local_loop.md``) works on two
    columns, ``(rank, ext)``: ``ext`` is the frozen sum of remote
    contributions, and each local iteration is one damped Jacobi sweep
    over the partition's internal edges, ``rank = ((1-d) + d*ext) +
    d*contrib``, where ``contrib`` is one CSR mat-vec per part.
    """

    local_agg = "sum"

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
        # that with the edges once, here, so it ships with the spec.
        src, dst, _ = graph.edge_arrays()
        self._blocks = split_edges(src, dst, self.inv_outdeg[src], partition)
        # contrib[dst] = sum of rank[src] * w: rows are the target rows
        self._fold = sum_fold_matrices(self._blocks, into_target=True)

    def num_partitions(self) -> int:
        return self.partition.k

    def local_fold(self, part_id: int, cols):
        return self._fold[part_id] @ cols[0], len(self._blocks[part_id].int_src)

    def lreduce_block(self, part_id: int, cols, acc: np.ndarray):
        d, ext = self.damping, cols[1]
        acc *= d
        acc += (1.0 - d) + d * ext  # ((1-d) + d*ext) + d*acc: + commutes
        return acc, ext

    def local_converged_block(self, prev_cols, cols) -> bool:
        return bool(np.abs(cols[0] - prev_cols[0]).max(initial=0.0) < self.tol)

    def global_converged(self, prev, curr):
        residual = float(np.abs(curr - prev).max()) if len(prev) else 0.0
        return residual < self.tol, residual


class PageRankBlockSpec(_PageRank, NodeBlockSpec):
    """PageRank over a :class:`~repro.graph.Partition`, state a flat
    rank vector.

    ``local_solve`` folds the incoming cut edges into the frozen ``ext``
    column and runs the block-level local step on ``(rank, ext)``; in
    general mode (``max_local_iters == 1``) a single sweep makes the
    whole scheme the classic synchronous power iteration.
    """

    #: The asynchronous power method tolerates mixed-round neighbour
    #: ranks (§VI: "PageRank ... relies on an asynchronous mat-vec");
    #: the combine overwrites disjoint slices, so arrival order is
    #: irrelevant.
    supports_async = True

    def init_state(self) -> np.ndarray:
        """All nodes start with PageRank 1 (§V-B)."""
        return np.ones(self.graph.num_nodes, dtype=np.float64)

    def frozen_columns(self, b, state):
        ext = np.zeros(len(b.nodes), dtype=np.float64)
        push = state[b.in_src]
        push *= b.in_w
        np.add.at(ext, b.in_dst, push)
        return (ext,)


# ----------------------------------------------------------------------
# Record-at-a-time (§IV API) implementation
# ----------------------------------------------------------------------

class PageRankKVSpec(_PageRank, AsyncMapReduceSpec):
    """PageRank through lmap/lreduce/greduce on the real engine.

    Hashtable layout per partition: ``node -> (rank, ext_contrib,
    internal_adj, external_adj, inv_outdeg)`` where ``ext_contrib`` is
    the frozen sum of remote contributions from the previous global
    round and the adjacency splits are precomputed once from the
    partition (the off-line locality-enhancing step).

    Global state: ``ranks`` dict ``node -> (rank, ext_contrib)``.

    The spec opts into the engine's columnar shuffle fast path: the
    gmap's boundary data becomes ``(node, (rank, contribution))`` rows —
    a rank record ``(rank, 0)`` from the owning partition plus one
    ``(0, contribution)`` row per outgoing cut edge — so ``greduce``
    collapses to a per-key segmented **sum** and the map-side ``"sum"``
    combiner (§V-B's partial aggregation) pre-folds each partition's
    contributions to one row per remote target before the shuffle.

    Block-level local step: the hashtable's ``(rank, ext_contrib)``
    columns; ``lreduce``'s fold of a node's internal contributions is a
    **sum** — bitwise the ``lmap``/``lreduce`` below.

    The damping factor and tolerance are the defaults of the shared
    base (0.85 and 1e-5).
    """

    supports_columnar = True
    columnar_combine = "sum"

    def __init__(self, graph: DiGraph, partition: Partition) -> None:
        super().__init__(graph, partition)
        assign = partition.assign
        # node -> ([internal successors], [external successors])
        self._internal_adj: dict[int, list[int]] = {}
        self._external_adj: dict[int, list[int]] = {}
        for u in range(graph.num_nodes):
            succ = graph.successors(u)
            same = assign[succ] == assign[u]
            self._internal_adj[u] = succ[same].tolist()
            self._external_adj[u] = succ[~same].tolist()

    # -- iteration plumbing ----------------------------------------------
    def initial_state(self) -> dict:
        """All ranks 1, with external contributions consistent with that
        (so the first global round matches the block/general trajectory
        exactly rather than starting from zero remote input)."""
        ext = np.zeros(self.graph.num_nodes, dtype=np.float64)
        for b in self._blocks:  # rank 1 over every incoming cut edge
            np.add.at(ext, b.nodes[b.in_dst], b.in_w)
        rows = np.column_stack([np.ones_like(ext), ext])
        return dict(enumerate(map(tuple, rows.tolist())))

    def partition_input(self, part_id: int, state: dict) -> list:
        xs = []
        for u in self.partition.parts()[part_id]:
            u = int(u)
            rank, ext = state[u]
            xs.append((u, (rank, ext, self._internal_adj[u],
                           self._external_adj[u], float(self.inv_outdeg[u]))))
        return xs

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

    # -- convergence & emission --------------------------------------------
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

    def global_converged(self, prev_state, curr_state):
        prev = np.array([prev_state[u][0] for u in curr_state])
        curr = np.array([curr_state[u][0] for u in curr_state])
        return super().global_converged(prev, curr)

    def state_from_output(self, output: list, prev_state):
        new_state = dict(prev_state)
        new_state.update(output)
        return new_state

    def local_columns(self, part_id: int, xs: list):
        return xs_columns(xs, self._blocks[part_id].node_list, 2)

    # -- columnar fast path ------------------------------------------------
    def gmap_emit_block(self, cols, part_id: int):
        """The columnar emission from the rank column: one
        gather-multiply over the partition's outgoing cut edges."""
        b = self._blocks[part_id]
        ranks = cols[0]
        n = len(b.nodes)
        keys = np.concatenate([b.nodes, b.cut_dst])
        rows = np.zeros((len(keys), 2), dtype=np.float64)
        rows[:n, 0] = ranks
        rows[n:, 1] = ranks[b.cut_src] * b.cut_w
        return keys, rows

    def gmap_emit_columnar(self, table: dict, part_id: int):
        """Same records as :meth:`gmap_emit`, as typed rows: the owning
        rank record is ``(rank, 0)``, each cut-edge contribution
        ``(0, rank/outdeg)`` — so a per-key sum yields exactly
        ``(rank, ext_contrib)``."""
        nodes = self._blocks[part_id].node_list
        ranks = np.fromiter((table[u][0] for u in nodes),
                            dtype=np.float64, count=len(nodes))
        return self.gmap_emit_block((ranks,), part_id)

    def columnar_reduce(self):
        return "sum"


# ----------------------------------------------------------------------
# High-level entry points
# ----------------------------------------------------------------------

def pagerank(
    graph: DiGraph,
    partition: Partition,
    *,
    mode: str = "eager",
    damping: float = 0.85,
    tol: float = 1e-5,
    cluster: "SimCluster | None" = None,
    config: "DriverConfig | None" = None,
    sync_policy: "AdaptiveSyncPolicy | None" = None,
    backend: str = "block",
    staleness: "int | None" = 0,
) -> PageRankResult:
    """Compute PageRank with the General or Eager formulation, on the
    simulator's block path.  (An engine run is
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
    cluster:
        Optional simulated cluster for time accounting.
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
    cfg = config if config is not None else DriverConfig(mode=mode)
    spec = PageRankBlockSpec(graph, partition, damping=damping, tol=tol)
    be = resolve_block_backend(spec, backend=backend, staleness=staleness,
                               cluster=cluster)
    res = IterationLoop(be, cfg, sync_policy=sync_policy).run()
    return PageRankResult(ranks=np.asarray(res.state),
                          global_iters=res.global_iters,
                          converged=res.converged, sim_time=res.sim_time,
                          result=res)


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
    """A submittable PageRank job for :meth:`~repro.core.Session.submit`.

    Where :func:`pagerank` runs immediately on a private driver, this
    describes the same (block-path) job so a multi-job
    :class:`~repro.core.session.Session` can schedule it alongside
    others on one shared cluster.  The final ranks are
    ``np.asarray(handle.result.state)``.
    """
    from repro.core.session import JobSpec

    cfg = config if config is not None else DriverConfig(mode=mode)
    return JobSpec(
        name=name if name is not None else "pagerank",
        config=cfg,
        sync_policy=sync_policy,
        make_backend=lambda session: resolve_block_backend(
            PageRankBlockSpec(graph, partition, damping=damping, tol=tol),
            backend=backend, staleness=staleness,
            cluster=session.cluster),
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
