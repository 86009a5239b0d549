"""The partial-synchronization programming API (§IV of the paper).

Two spec classes implement the same two-level (local/global) scheme,
with one local loop between them:

* :class:`BlockSpec` — the per-partition spec the simulator's
  ``BlockBackend`` runs on a flat state vector; ``local_solve`` reports
  per-iteration operation counts and shuffle bytes for the simulated
  cluster to price.  The four node-partitioned apps (PageRank, SSSP,
  components, Jacobi) share one ``local_solve``,
  :func:`repro.core.localmr.run_local_block` over each app's
  ``local_step`` on columns cut from the flat state, and a general
  round (one local iteration per part) is one ``general_round`` call
  over every part at once — the paper notes
  that "local map and local reduce operations can use a thread pool to
  extract further parallelism" (§IV); on a NumPy substrate that lever
  is vectorising the local iteration.  Only k-means keeps a loop of its own.

* :class:`AsyncMapReduceSpec` — the faithful record-at-a-time API with
  the paper's four user functions (``lmap``, ``lreduce``, ``greduce``
  and the generated ``gmap``) and the EmitLocal* data flow, run on the
  real MapReduce engine.  A KV spec is a block spec plus the §IV
  functions: ``PageRankKVSpec`` and ``SsspKVSpec`` subclass their
  app's block spec, so the engine's gmap runs the same block-level local
  step (declared by :attr:`AsyncMapReduceSpec.local_agg`) and stays
  bitwise the per-record loop, which remains the oracle and the
  teaching API.  The layers price that loop differently: an engine
  iteration counts the per-record loop's ``3n + m`` operations, a
  simulated one ``n + m`` (one per node and per internal edge;
  ``docs/local_loop.md``).

Both share :class:`LocalSolveReport` (what a gmap hands to the global
synchronization) and the convergence protocol from
:mod:`repro.core.convergence`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.emitter import LocalMapContext, LocalReduceContext
from repro.engine.task import TaskContext

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

    Independently of the shuffle path, a spec may declare a
    **block-level local step** (:attr:`local_agg`); the gmap then runs
    the local loop on arrays — :func:`repro.core.localmr.run_local_block`
    over the ``local_step`` a node-partitioned app builds from its one
    ``block_step``, on
    ``repro.apps._nodeblock``'s ``NodeBlockSpec`` and ``NodeRowState``
    (contract in ``docs/local_loop.md``).
    """

    #: Aggregator ("sum"/"min"/"max") ``lreduce`` folds a key's
    #: contribution records with; naming one declares the block-level
    #: local step, None keeps the per-record loop.
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
    def greduce(self, key: Any, values: list, ctx: TaskContext) -> None:
        """Global reduce over one globally-grouped key; emits via
        ``ctx.emit`` (the paper's ``Emit()``).

        ``ctx`` is the engine reduce task's own context, shared by every
        key of the task: ``emit`` appends one output pair and counts one
        op, ``add_ops`` charges extra work, ``incr`` bumps a counter.
        The wrapper (:class:`~repro.core.gmap.GreduceFunction`) adds one
        more op per emitted pair after the call.  A ``greduce`` must not
        call ``ctx.emit_block``: the task raises ``RuntimeError``.
        """

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
        block-level local step, whatever its ``local_columns`` cuts the
        columns from (records are then built only in the
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
        ``None`` keeps the state unchanged.

        A checkpoint rollback calls the hook again for every round it
        replays, with the checkpointed state, so a hook that draws or
        keeps anything must give a replayed round what it gave the
        round the first time."""
        return None

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
    #: An async spec also names the rows its solve reads outside its
    #: own slice, ``read_rows(part_id)``, and keeps a partition's
    #: private view current there, ``refresh_view(view, part_id,
    #: reports)``: ``global_combine``'s rule, in place, at those rows
    #: only (``docs/async_backend.md``; ``NodeBlockSpec`` writes both).
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

    def general_round(self, state: Any) -> "list[LocalSolveReport]":
        """Every partition's report for a general round, in partition
        order: one local iteration each against the same ``state``,
        ``local_solve(p, state, max_local_iters=1)`` for every ``p``.

        ``BlockBackend`` calls this whenever a round's budget is one
        local iteration (general mode, or an adaptive budget at 1).  A
        spec that can compute the whole round in one pass overrides it;
        its reports must equal the per-part ones field for field, so
        no output bit, op count or simulated second moves
        (``docs/local_loop.md``, "A general round is one sweep")."""
        return [self.local_solve(p, state, max_local_iters=1)
                for p in range(self.num_partitions())]

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
        """Pre-iteration hook (see :meth:`AsyncMapReduceSpec.on_global_iteration`);
        a checkpoint rollback calls it again for every replayed round."""
        return None
