"""Asynchronous Jacobi linear solver — the §VI generality claim, realised.

    "PageRank, which relies on an asynchronous mat-vec, is representative
    of eigenvalue solvers ...  Asynchronous mat-vecs form the core of
    iterative linear system solvers."  (§VI, Generality of Proposed
    Extensions)

This module solves ``A x = b`` for (strictly row-) diagonally-dominant
sparse ``A`` with the Jacobi iteration ``x <- D^-1 (b - R x)``, cast
into the same General/Eager pairing as PageRank: the **general** mode
performs one synchronous Jacobi sweep per global round; the **eager**
mode iterates each partition's block to local convergence against
frozen remote values (block-Jacobi / asynchronous iteration — the
chaotic-relaxation literature the paper cites [1, 9] guarantees
convergence for contraction mappings regardless of the update
schedule).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster import SimCluster
from repro.core import (
    BlockSpec,
    DriverConfig,
    IterationLoop,
    IterativeResult,
    LocalSolveReport,
    resolve_block_backend,
)
from repro.graph import Partition, split_edges

__all__ = ["SparseSystem", "JacobiBlockSpec", "JacobiResult", "jacobi_solve",
           "make_diagonally_dominant_system"]

RECORD_BYTES = 16


@dataclass(frozen=True)
class SparseSystem:
    """A sparse linear system ``A x = b`` in COO form.

    ``rows``/``cols``/``vals`` hold the off-diagonal entries; ``diag``
    the diagonal (must be nonzero), ``b`` the right-hand side.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    diag: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        for name in ("rows", "cols", "vals"):
            if getattr(self, name).ndim != 1:
                raise ValueError(f"{name} must be 1-D")
        if not (len(self.rows) == len(self.cols) == len(self.vals)):
            raise ValueError("rows/cols/vals must have equal length")
        if self.diag.shape != (self.n,) or self.b.shape != (self.n,):
            raise ValueError("diag and b must have shape (n,)")
        if np.any(self.diag == 0):
            raise ValueError("diagonal entries must be nonzero")
        if len(self.rows) and (self.rows.min() < 0 or self.rows.max() >= self.n
                               or self.cols.min() < 0 or self.cols.max() >= self.n):
            raise ValueError("row/col indices out of range")
        if len(self.rows) and np.any(self.rows == self.cols):
            raise ValueError("diagonal entries belong in diag, not the COO part")

    def is_diagonally_dominant(self) -> bool:
        """Strict row diagonal dominance (sufficient for Jacobi/async
        convergence)."""
        offsum = np.zeros(self.n)
        np.add.at(offsum, self.rows, np.abs(self.vals))
        return bool(np.all(np.abs(self.diag) > offsum))

    def dense(self) -> np.ndarray:
        """Materialise A (tests/small systems only).

        Duplicate COO entries accumulate, consistent with the scatter-add
        semantics of the solver kernels.
        """
        a = np.zeros((self.n, self.n))
        np.add.at(a, (self.rows, self.cols), self.vals)
        np.add.at(a, (np.arange(self.n), np.arange(self.n)), self.diag)
        return a

    def residual_norm(self, x: np.ndarray) -> float:
        """``||A x - b||_inf`` for a candidate solution."""
        ax = self.diag * x
        np.add.at(ax, self.rows, self.vals * x[self.cols])
        return float(np.abs(ax - self.b).max())


def make_diagonally_dominant_system(
    partition: Partition, *, dominance: float = 1.5,
    seed: "int | np.random.Generator | None" = 0,
) -> SparseSystem:
    """Build a diagonally-dominant system with the sparsity pattern of a
    partitioned graph (so the same locality structure applies).

    Off-diagonal ``A[u, v]`` is a random negative coupling for every
    graph edge ``u -> v``; the diagonal is ``dominance`` times the row's
    absolute off-diagonal sum (a Laplacian-like, well-conditioned
    system).
    """
    from repro.util import as_rng

    if dominance <= 1.0:
        raise ValueError("dominance must be > 1 for strict dominance")
    g = partition.graph
    rng = as_rng(seed)
    src, dst, _ = g.edge_arrays()
    keep = src != dst
    rows, cols = src[keep], dst[keep]
    vals = -rng.uniform(0.5, 1.5, size=len(rows))
    offsum = np.zeros(g.num_nodes)
    np.add.at(offsum, rows, np.abs(vals))
    diag = dominance * np.maximum(offsum, 1.0)
    b = rng.uniform(-1.0, 1.0, size=g.num_nodes)
    return SparseSystem(n=g.num_nodes, rows=rows, cols=cols, vals=vals,
                        diag=diag, b=b)


@dataclass
class JacobiResult:
    """Solution plus run statistics."""

    x: np.ndarray
    global_iters: int
    converged: bool
    sim_time: float
    residual_norm: float
    result: IterativeResult


class JacobiBlockSpec(BlockSpec):
    """Block-Jacobi solver over a graph partition's sparsity structure."""

    #: Each partition owns a disjoint slice of the unknown vector.
    partition_scoped_state = True
    #: Slice-overwrite combine + frozen-remote solves tolerate
    #: mixed-round neighbour state (chaotic relaxation, the literature
    #: the paper cites for exactly this kernel).
    supports_async = True

    def __init__(self, system: SparseSystem, partition: Partition, *,
                 tol: float = 1e-8, require_dominant: bool = True) -> None:
        if system.n != partition.graph.num_nodes:
            raise ValueError("system size must match the partitioned graph")
        if tol <= 0:
            raise ValueError("tol must be > 0")
        if require_dominant and not system.is_diagonally_dominant():
            raise ValueError(
                "Jacobi requires a (strictly) diagonally dominant system"
            )
        self.system = system
        self.partition = partition
        self.tol = tol
        # The row owns the entry: a part's couplings to remote unknowns
        # are its outgoing cut edges.
        self._blocks = split_edges(system.rows, system.cols, system.vals,
                                   partition)

    def num_partitions(self) -> int:
        return self.partition.k

    def init_state(self) -> np.ndarray:
        return np.zeros(self.system.n, dtype=np.float64)

    def local_solve(self, part_id: int, state: np.ndarray, *,
                    max_local_iters: int) -> LocalSolveReport:
        blk = self._blocks[part_id]
        nodes = blk.nodes
        i_r, i_c, i_v = blk.int_src, blk.int_dst, blk.int_w
        e_r, e_c, e_v = blk.cut_src, blk.cut_dst, blk.cut_w
        if len(nodes) == 0:
            return LocalSolveReport(partition=part_id, updates=(nodes, nodes),
                                    local_iters=0, per_iter_ops=[],
                                    shuffle_bytes=0, update_nbytes=0)
        sysm = self.system
        # Frozen remote coupling: b_eff = b - R_ext x_ext.
        b_eff = sysm.b[nodes].copy()
        if len(e_r):
            np.add.at(b_eff, e_r, -e_v * state[e_c])
        diag = sysm.diag[nodes]
        x = state[nodes]
        per_iter_ops: list[float] = []
        iters = 0
        while iters < max_local_iters:
            rx = np.zeros(len(nodes))
            if len(i_r):
                np.add.at(rx, i_r, i_v * x[i_c])
            x_new = (b_eff - rx) / diag
            per_iter_ops.append(float(len(i_r) + len(nodes)))
            iters += 1
            delta = float(np.abs(x_new - x).max())
            x = x_new
            if delta < self.tol:
                break
        records = len(nodes) + len(e_r)
        # Dense update: the whole solution slice is rewritten through
        # the state store each round (partition-size distribution).
        return LocalSolveReport(partition=part_id, updates=(nodes, x),
                                local_iters=iters, per_iter_ops=per_iter_ops,
                                shuffle_bytes=records * RECORD_BYTES,
                                update_nbytes=int(x.nbytes))

    def global_combine(self, state, reports):
        new_state = state.copy()
        records = 0
        for r in reports:
            nodes, x = r.updates
            new_state[nodes] = x
            records += r.shuffle_bytes // RECORD_BYTES
        return new_state, float(records), 0

    def global_converged(self, prev, curr):
        residual = float(np.abs(curr - prev).max()) if len(prev) else 0.0
        return residual < self.tol, residual

    def state_nbytes(self, state) -> int:
        return int(np.asarray(state).nbytes)


def jacobi_solve(
    system: SparseSystem,
    partition: Partition,
    *,
    mode: str = "eager",
    tol: float = 1e-8,
    cluster: "SimCluster | None" = None,
    config: "DriverConfig | None" = None,
    backend: str = "block",
    staleness: "int | None" = 0,
    pace=None,
    phase=None,
    detector=None,
    require_dominant: bool = True,
) -> JacobiResult:
    """Solve ``A x = b`` with the General or Eager block-Jacobi scheme.

    ``backend="async"`` (or any nonzero ``staleness``) runs without a
    barrier; ``pace``/``phase``/``detector`` are the async timeline and
    safety knobs (see :class:`~repro.core.AsyncBackend`).
    ``require_dominant=False`` skips the dominance precondition — only
    sensible for divergence studies of the chaotic path.
    """
    cfg = config if config is not None else DriverConfig(mode=mode)
    spec = JacobiBlockSpec(system, partition, tol=tol,
                           require_dominant=require_dominant)
    be = resolve_block_backend(spec, backend=backend, staleness=staleness,
                               cluster=cluster, pace=pace, phase=phase,
                               detector=detector)
    res = IterationLoop(be, cfg).run()
    x = np.asarray(res.state)
    return JacobiResult(x=x, global_iters=res.global_iters,
                        converged=res.converged, sim_time=res.sim_time,
                        residual_norm=system.residual_norm(x), result=res)
