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
schedule).  The local sweep is ``run_local_block`` over the spec's
``block_step``, one CSR mat-vec per sweep through the kernel SciPy's
``@`` calls (``csr_fold``), built once per partition solve;
``local_solve`` is the node-partitioned base class's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps._nodeblock import NodeBlockSpec, csr_fold, shared_split
from repro.core import DriverConfig, resolve_block_backend
from repro.graph import Partition

__all__ = ["SparseSystem", "JacobiBlockSpec", "jacobi_spec",
           "make_diagonally_dominant_system"]


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


class JacobiBlockSpec(NodeBlockSpec):
    """Block-Jacobi solver over a graph partition's sparsity structure.

    The block-level local step works on three columns, ``(x, b_eff,
    diag)``: ``b_eff = b - R_ext x_ext`` is the right-hand side with the
    remote unknowns frozen, and each local iteration is one Jacobi sweep
    over the part's internal entries, ``x = (b_eff - R_int x) / diag``;
    ``b_eff`` and ``diag`` are the same arrays for the whole solve.
    """

    local_agg = "sum"
    #: Slice-overwrite combine + frozen-remote solves tolerate
    #: mixed-round neighbour state (chaotic relaxation, the literature
    #: the paper cites for exactly this kernel).
    supports_async = True
    #: A row's remote unknowns are its cut entries' columns.
    remote = "cut_dst"

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
        # are its outgoing cut edges.  R_int x: rows are the entries' own
        # (source) rows.
        self._blocks, self._fold = shared_split(
            self, "jacobi", system,
            lambda: (system.rows, system.cols, system.vals), into_target=False)

    def init_state(self) -> np.ndarray:
        return np.zeros(self.system.n, dtype=np.float64)

    def frozen_columns(self, blk, remote):
        b_eff = self.system.b[blk.nodes]
        np.add.at(b_eff, blk.cut_src, -blk.cut_w * remote)
        return b_eff, self.system.diag[blk.nodes]

    def shuffle_records(self, blk, max_local_iters: int) -> int:
        # One record per unknown and per remote coupling, general mode
        # included (no per-internal-entry records).
        return len(blk.nodes) + len(blk.cut_src)

    def block_step(self, blk, mats, cols):
        # Row r's terms of R_int x, one record per internal entry.
        fold = csr_fold(*mats)
        records = sum(m.nnz for m in mats)
        _, b_eff, diag = cols
        tol = self.tol
        delta = np.empty(len(b_eff))

        def step(x):
            acc = fold(x)
            np.subtract(b_eff, acc, out=acc)
            acc /= diag  # (b_eff - R_int x) / diag
            np.subtract(acc, x, out=delta)
            np.abs(delta, out=delta)
            return acc, records, bool(np.maximum.reduce(delta, initial=0.0) < tol)

        return step


def jacobi_spec(
    system: SparseSystem,
    partition: Partition,
    *,
    mode: str = "eager",
    tol: float = 1e-8,
    config: "DriverConfig | None" = None,
    name: "str | None" = None,
    backend: str = "block",
    staleness: "int | None" = 0,
    phase=None,
    detector=None,
    require_dominant: bool = True,
) -> "JobSpec":
    """Solve ``A x = b`` with the General or Eager block-Jacobi scheme,
    as a :class:`~repro.core.session.JobSpec`: ``.run(cluster)`` runs it
    alone, :meth:`~repro.core.Session.submit` schedules it with others.
    The solution is ``x = np.asarray(result.state)``, and
    ``system.residual_norm(x)`` is its residual.

    ``config`` overrides ``mode`` when given.  ``backend="async"`` (or
    any nonzero ``staleness``) runs without a barrier;
    ``phase``/``detector`` are the async timeline and safety knobs (see
    :class:`~repro.core.AsyncBackend`).  ``detector`` watches the first
    job built from the description; each later one (a second submit or
    run) gets a fresh detector of its own, ``handle.loop.backend.
    detector``, so two jobs never share a residual window.
    ``require_dominant=False`` skips the dominance precondition — only
    sensible for divergence studies of the chaotic path.
    """
    from repro.core.session import JobSpec

    detectors = iter([detector])

    def make_backend(cluster):
        watch = next(detectors, None)
        if watch is None and detector is not None:
            watch = type(detector)()
        return resolve_block_backend(
            JacobiBlockSpec(system, partition, tol=tol,
                            require_dominant=require_dominant),
            backend=backend, staleness=staleness, cluster=cluster,
            phase=phase, detector=watch)

    return JobSpec(
        name=name if name is not None else "jacobi",
        config=config if config is not None else DriverConfig(mode=mode),
        make_backend=make_backend,
    )
