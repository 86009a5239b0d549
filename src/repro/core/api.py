"""The partial-synchronization programming API (§IV of the paper).

Two spec flavours implement the same two-level (local/global) scheme,
with one local loop between them:

* :class:`AsyncMapReduceSpec` — the faithful record-at-a-time API with
  the paper's four user functions (``lmap``, ``lreduce``, ``greduce``
  and the generated ``gmap``) and the EmitLocal* data flow.  It runs on
  the real MapReduce engine; ``PageRankKVSpec`` and ``SsspKVSpec`` are
  the bundled ones.

* the **block-level local step** of an :class:`AsyncMapReduceSpec`
  (opt-in, declared by :attr:`AsyncMapReduceSpec.local_agg`) — the same
  ``lmap``/``lreduce`` written once more over arrays keyed by
  partition-local row, so Figure 1's loop runs at array speed inside the
  gmap (:func:`repro.core.localmr.run_local_block`) and stays bitwise
  the per-record loop, which remains the oracle and the teaching API.
  The paper notes that "local map and local reduce operations can use a
  thread pool to extract further parallelism" (§IV); on a NumPy
  substrate that lever is vectorising the local iteration.

* :class:`BlockSpec` — the per-partition spec the simulator's
  ``BlockBackend`` runs on a flat state vector; ``local_solve`` reports
  per-iteration operation counts and shuffle bytes for the simulated
  cluster to price.  The four node-partitioned apps (PageRank, SSSP,
  components, Jacobi) share one ``local_solve``: the block step above,
  ``run_local_block`` over each app's hooks on columns cut from the
  flat state — for PageRank and SSSP the hooks their engine-path specs
  declare, so both layers run one loop.  The layers price it
  differently: an engine iteration counts the per-record loop's
  ``3n + m`` operations, a simulated one ``n + m`` (one per node and
  per internal edge; ``docs/local_loop.md``).  Only k-means, which has
  a block spec and no engine-path spec, keeps a loop of its own.

Both flavours share :class:`LocalSolveReport` (what a gmap hands to the
global synchronization) and the convergence protocol from
:mod:`repro.core.convergence`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.emitter import (
    GlobalReduceContext,
    LocalMapContext,
    LocalReduceContext,
)

__all__ = ["AsyncMapReduceSpec", "BlockSpec", "LocalSolveReport"]


@dataclass
class LocalSolveReport:
    """What one gmap (partition-local solve) reports to the global sync."""

    partition: int
    #: Application-defined update payload consumed by the global combine.
    updates: Any
    #: Number of local map/reduce iterations performed.
    local_iters: int
    #: Operation count of each local iteration (len == local_iters).
    per_iter_ops: list = field(default_factory=list)
    #: Bytes this partition ships through the global shuffle.
    shuffle_bytes: int = 0
    #: Bytes of state this partition writes through the inter-round
    #: state store (its real update volume — frontier-driven apps
    #: report only the entries that changed, so skew is visible to a
    #: tablet-sharded store).  ``None`` lets the framework fall back to
    #: an even share of ``BlockSpec.state_nbytes``, preserving the
    #: historical aggregate charge.
    update_nbytes: "int | None" = None

    def __post_init__(self) -> None:
        if self.local_iters < 0:
            raise ValueError("local_iters must be >= 0")
        if len(self.per_iter_ops) != self.local_iters:
            raise ValueError(
                f"per_iter_ops has {len(self.per_iter_ops)} entries, "
                f"expected {self.local_iters}"
            )
        if self.shuffle_bytes < 0:
            raise ValueError("shuffle_bytes must be >= 0")
        if self.update_nbytes is not None and self.update_nbytes < 0:
            raise ValueError("update_nbytes must be >= 0 or None")

    @property
    def total_ops(self) -> float:
        return float(sum(self.per_iter_ops))


class AsyncMapReduceSpec(abc.ABC):
    """Record-at-a-time partial-synchronization spec (the paper's API).

    Subclasses provide the four user functions of §IV plus the iteration
    plumbing.  The framework generates ``gmap`` from ``lmap`` +
    ``lreduce`` exactly as Figure 1 prescribes (see
    :mod:`repro.core.localmr` and :mod:`repro.core.gmap`).

    Array-valued specs may additionally opt into the engine's
    **columnar shuffle fast path** (:mod:`repro.engine.columnar`) by
    setting :attr:`supports_columnar` and implementing the
    ``*_columnar`` hooks: the gmap then ships its boundary data as typed
    ``(int64 key, float64 row)`` batches, the global reduce runs as one
    segmented array aggregation (with a map-side combiner pre-folding
    duplicates per partition — the paper's partial-aggregation lever,
    §V-B), and byte accounting is dtype itemsize math.  The classic
    ``gmap_emit``/``greduce`` path stays intact as the fallback and the
    equivalence oracle (``EngineBackend(..., columnar=False)``).

    Independently of the shuffle path, a spec whose hashtable values
    lead with float columns may declare a **block-level local step**
    (:attr:`local_agg`, :meth:`local_fold` and the ``*_block`` hooks);
    the gmap then runs the local loop on arrays —
    :func:`repro.core.localmr.run_local_block`, contract in
    ``docs/local_loop.md``.
    """

    #: Aggregator ("sum"/"min"/"max") ``lreduce`` folds a key's
    #: contribution records with; naming one declares the block-level
    #: local step (hooks below), None keeps the per-record loop.
    local_agg: "str | None" = None
    #: Set True when the spec implements the columnar hooks below.
    supports_columnar: bool = False
    #: Named map-side combiner ("sum"/"min"/"max") applied to the
    #: columnar gmap output before the shuffle; None ships raw records.
    columnar_combine: "str | None" = None

    # -- the four user functions (§IV) ---------------------------------
    @abc.abstractmethod
    def lmap(self, key: Any, value: Any, ctx: LocalMapContext) -> None:
        """Local map: called per hashtable entry; emits via
        ``ctx.emit_local_intermediate``."""

    @abc.abstractmethod
    def lreduce(self, key: Any, values: list, ctx: LocalReduceContext) -> None:
        """Local reduce over one locally-grouped key; emits via
        ``ctx.emit_local``."""

    @abc.abstractmethod
    def greduce(self, key: Any, values: list, ctx: GlobalReduceContext) -> None:
        """Global reduce over one globally-grouped key; emits via
        ``ctx.emit``."""

    # -- iteration plumbing ---------------------------------------------
    @abc.abstractmethod
    def initial_state(self) -> Any:
        """Global state before the first iteration."""

    @abc.abstractmethod
    def num_partitions(self) -> int:
        """Number of partitions (= global map tasks per iteration)."""

    @abc.abstractmethod
    def partition_input(self, part_id: int, state: Any) -> Any:
        """Build the gmap input ``xs`` for a partition: the key-value
        list the per-record loop iterates — or, for a spec declaring the
        block-level local step, whatever :meth:`local_columns` cuts its
        columns from (the KV graph specs ship their part's rows of an
        array state, ``state[nodes]``, and build records only in the
        :class:`~repro.core.localmr.per_record` oracle).

        This is the "functions to convert data into the formats required
        by the local map and local reduce functions" of §IV.
        """

    @abc.abstractmethod
    def state_from_output(self, output: list, prev_state: Any) -> Any:
        """Fold the global reduce's Emit() pairs into the next state."""

    @abc.abstractmethod
    def local_converged(self, prev_table: dict, curr_table: dict) -> bool:
        """Local termination function (§IV: "functions for termination
        of global and local MapReduce iterations")."""

    @abc.abstractmethod
    def global_converged(self, prev_state: Any, curr_state: Any) -> "tuple[bool, float]":
        """Global termination; returns (converged, residual)."""

    # -- optional hooks --------------------------------------------------
    def gmap_emit(self, table: dict, part_id: int) -> list:
        """Pairs the gmap emits to the global reduce at local convergence.

        Defaults to the hashtable contents (Figure 1's "for each value in
        lreduce-output { EmitIntermediate(key, value) }"); applications
        with cross-partition data flow (e.g. PageRank contributions over
        cut edges) override this to add boundary traffic.
        """
        return list(table.items())

    def on_global_iteration(self, iteration: int, state: Any) -> Any:
        """Hook called before each global iteration; may return a new
        state (e.g. K-Means' periodic repartitioning, §V-D).  Returning
        ``None`` keeps the state unchanged."""
        return None

    # -- block-level local step (opt-in, see local_agg) -----------------
    def local_columns(self, part_id: int, xs: Any) -> Any:
        """The hashtable's mutable columns from the gmap input: a tuple
        of ``c`` ``(n,)`` float64 arrays, column ``j`` the ``j``-th field
        of every value, row ``i`` the partition's ``i``-th key — for an
        ``(n, c)`` row block from :meth:`partition_input`, its
        transpose; ``ValueError`` when ``xs`` does not have the row
        count of the partition the spec's static arrays describe."""
        raise NotImplementedError

    def local_fold(self, part_id: int, cols: Any) -> "tuple[Any, int]":
        """``lmap`` over the whole partition, the local shuffle and
        ``lreduce``'s fold, as ``(acc, records)``: ``acc[i]`` is row
        ``i``'s contribution records folded by :attr:`local_agg` one by
        one in per-record emission order (row-major by source row),
        from the aggregator's identity where none arrived — bitwise the
        per-record fold; ``records`` is how many contribution records
        ``lmap`` emitted (the carried ``rec`` is implied).  A sum is a
        sequential CSR mat-vec, a min a gather plus
        :func:`repro.core.localmr.scatter_fold`."""
        raise NotImplementedError

    def lreduce_block(self, part_id: int, cols: Any, acc: Any) -> Any:
        """``lreduce``'s epilogue for every row at once, over
        :meth:`local_fold`'s ``acc``; returns the new ``cols``.  ``acc``
        is this iteration's own array and may become a new column; the
        input columns must not be written."""
        raise NotImplementedError

    def local_converged_block(self, prev_cols: Any, cols: Any) -> bool:
        """:meth:`local_converged` on the column arrays."""
        raise NotImplementedError

    def gmap_emit_block(self, cols: Any, part_id: int) -> "tuple[Any, Any]":
        """:meth:`gmap_emit_columnar` from the column arrays (the
        columnar gmap never rebuilds the hashtable)."""
        raise NotImplementedError

    def gmap_emit_pairs(self, cols: Any, part_id: int) -> list:
        """:meth:`gmap_emit` from the column arrays: the same pairs in
        the same order, built without the hashtable (what the object
        shuffle path ships)."""
        raise NotImplementedError

    # -- columnar fast-path hooks (opt-in, see supports_columnar) -------
    def gmap_emit_columnar(self, table: dict, part_id: int
                           ) -> "tuple[Any, Any]":
        """Typed ``(keys, value_rows)`` arrays the gmap ships to the
        global reduce at local convergence — the vectorised counterpart
        of :meth:`gmap_emit` (same logical records, array layout)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the columnar path")

    def columnar_reduce(self) -> Any:
        """The global reduce as a declarative spec the engine can run
        vectorised: an aggregation name or a
        :class:`~repro.engine.columnar.ColumnarReduce`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the columnar path")

    def state_from_columnar(self, block: Any, prev_state: Any) -> Any:
        """Fold a columnar job's output block into the next state.

        Default materialises the block and defers to
        :meth:`state_from_output`; array-state specs override this to
        stay object-free end to end.
        """
        return self.state_from_output(block.to_pairs(), prev_state)


class BlockSpec(abc.ABC):
    """Vectorised per-partition spec (thread-pool/NumPy variant of §IV)."""

    #: True when each partition's updates touch a disjoint slice of the
    #: global state (node-partitioned graph algorithms), so
    #: ``global_combine`` over a *subset* of reports is meaningful.  The
    #: hierarchical driver (§VIII's "hierarchy of synchronizations")
    #: requires this; K-Means (whose combine averages across partitions)
    #: leaves it False.
    partition_scoped_state: bool = False

    #: True when the spec's update is safe under no-barrier iteration:
    #: ``local_solve`` must tolerate a state vector mixing neighbour
    #: slices from *different* rounds (chaotic relaxation, §VII), and
    #: ``global_combine`` must be insensitive to report arrival order.
    #: Specs opt in explicitly; the async backend refuses otherwise.
    supports_async: bool = False

    @abc.abstractmethod
    def num_partitions(self) -> int:
        """Number of partitions (global map tasks per iteration)."""

    @abc.abstractmethod
    def init_state(self) -> Any:
        """Global state before the first iteration."""

    @abc.abstractmethod
    def local_solve(self, part_id: int, state: Any, *,
                    max_local_iters: int) -> LocalSolveReport:
        """Run local iterations for one partition against frozen remote
        state; must stop at local convergence or ``max_local_iters``."""

    @abc.abstractmethod
    def global_combine(self, state: Any,
                       reports: Sequence[LocalSolveReport]) -> "tuple[Any, float, int]":
        """The global reduce: fold all partitions' updates into the next
        state.  Returns ``(new_state, reduce_ops, extra_shuffle_bytes)``.
        """

    @abc.abstractmethod
    def global_converged(self, prev_state: Any, curr_state: Any) -> "tuple[bool, float]":
        """Global termination; returns (converged, residual)."""

    def state_nbytes(self, state: Any) -> int:
        """Size of the state round-tripped through the state store
        between iterations (§VIII).  When a spec's ``local_solve``
        reports do not carry ``update_nbytes``, this total is split
        evenly over the partitions before it reaches the store."""
        from repro.cluster.dfs import estimate_nbytes

        return estimate_nbytes(state)

    def on_global_iteration(self, iteration: int, state: Any) -> Any:
        """Pre-iteration hook (see :meth:`AsyncMapReduceSpec.on_global_iteration`)."""
        return None
