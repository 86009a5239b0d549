"""Shuffle: route map outputs to reducers, group by key, sort.

Between the phases sits the global synchronization the paper is about:
"The reduce phase must wait for all the map tasks to complete, since it
requires all the values corresponding to each key" (§II).  That data
dependency is fundamental — no reduce group is *complete* before every
map has contributed — but the *work* of grouping is not: the
:class:`ShuffleBuffer` consumes each map task's buckets as soon as that
task finishes, so by the time the last map completes the reducer inputs
are already built (object buckets) or located (columnar buckets, below)
and reduce tasks can launch immediately (the paper's eager reduce-side
consumption, §V-B.2).  :func:`shuffle` is the batch
wrapper for direct callers; it feeds a buffer in a single pass over the
map outputs.

The buffer speaks both engine representations.  Object buckets (pair
lists) merge into per-reducer dict tables one pair at a time — the
reference path.  Columnar buckets are only *located*: each reducer's
buckets — each a :class:`~repro.engine.columnar.ColumnarBlock`, or the
:class:`~repro.engine.shm.ShmBlockRef` handle of a block a worker
parked in shared memory, kept as it is and never read here — are
lined up in map-task order, and :meth:`ShuffleBuffer.columnar_runs`
seals them into one ungrouped :class:`ColumnarRun` per reducer.  As in
the paper's MapReduce, where reducers pull their partitions from the
map side and the master only tracks where they are (§II), the run is
what a reduce task is handed; the task reads its buckets and groups
them itself (:meth:`ColumnarRun.group`: the columnar grouping kernel —
:func:`~repro.engine.columnar.stable_key_order`, a stable sort by key,
then run boundaries from one neighbour comparison), so R reducers
group in parallel and the synchronising driver copies nothing.
:meth:`ShuffleBuffer.columnar_groups` and :meth:`ShuffleBuffer.groups`
group the same runs in the calling process; the latter materialises
output *byte-identical* to the object path — the oracle contract the
equivalence tests pin.

Determinism: within a group, values arrive ordered by (map task index,
emission order) — the buffer reorders out-of-order completions
internally — and groups are key-sorted when the job asks for it, so job
output is a pure function of the input.  The deterministic-replay fault
tolerance and the cross-executor/eager-vs-barrier equivalence tests rely
on exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.cluster.dfs import estimate_nbytes
from repro.engine.columnar import ColumnarBlock, ColumnarGroups, group_columnar
from repro.engine.shm import ShmBlockRef

__all__ = ["ColumnarRun", "ShuffleBuffer", "shuffle", "shuffle_bytes"]


@dataclass
class ColumnarRun:
    """One reducer's ungrouped columnar input: where its buckets are.

    ``blocks`` holds the reducer's map buckets in map-task order, each
    a block or the handle of one parked in shared memory.  Picklable
    and small when the buckets are handles — this is what crosses to a
    pooled reduce task, which calls :meth:`group` worker-side.
    """

    blocks: "list[ColumnarBlock | ShmBlockRef]"
    sort_keys: bool = True

    def group(self, keep: "Callable | None" = None) -> ColumnarGroups:
        """Read the buckets and group them by key.

        Parked buckets are read in place and their segments left — a
        retried reduce attempt reads them again.  Grouping is sort-based
        and stable (see :func:`~repro.engine.columnar.group_columnar`),
        so each group's value rows sit in (map task index, emission
        order) — the object path's exact value order.

        ``keep`` is a pool worker's plan lookup for this reducer's slot
        (see :func:`~repro.engine.columnar.group_columnar`).
        """
        blocks = [b.take(unlink=False) if isinstance(b, ShmBlockRef) else b
                  for b in self.blocks]
        return group_columnar(blocks, sort_keys=self.sort_keys, keep=keep)


class ShuffleBuffer:
    """Incremental, order-preserving shuffle grouping.

    Map tasks may complete (and be :meth:`add`-ed) in any order; the
    buffer holds out-of-order contributions aside and merges them into
    the per-reducer tables strictly in map-task-index order, so the
    grouped output is byte-identical to a serial post-barrier shuffle.

    The representation (object pair lists vs columnar blocks, parked
    in shared memory or not) is detected from the first map task's
    buckets; all map tasks of one shuffle must agree.

    Parameters
    ----------
    num_maps:
        Number of map tasks that will contribute (M).
    num_reducers:
        Number of reduce partitions (R).
    sort_keys:
        Sort each reducer's groups by key at :meth:`groups` time.
    defer_merge:
        Park *every* contribution and fold only at seal time.  The
        eager in-order merge is irreversible (object buckets dissolve
        into shared dict tables), so a runtime that may have to
        *invalidate* a map task's output after the fact — a node died
        and took its shuffle partitions with it — runs the buffer
        deferred: :meth:`invalidate` simply drops the parked buckets and
        the task's replay :meth:`add`\\ s a fresh copy.
    """

    def __init__(self, num_maps: int, num_reducers: int, *,
                 sort_keys: bool = True,
                 defer_merge: bool = False) -> None:
        if num_maps < 0:
            raise ValueError("num_maps must be >= 0")
        if num_reducers < 1:
            raise ValueError("num_reducers must be >= 1")
        self.num_maps = num_maps
        self.num_reducers = num_reducers
        self.sort_keys = sort_keys
        self.defer_merge = defer_merge
        self._tables: list[dict[Any, list]] = [{} for _ in range(num_reducers)]
        #: Columnar mode: per-reducer blocks (or their shared-memory
        #: handles), lined up in map-index order.
        self._blocks: "list[list[ColumnarBlock | ShmBlockRef]]" = [
            [] for _ in range(num_reducers)]
        #: None until the first add decides the representation.
        self._columnar: "bool | None" = None
        #: Out-of-order contributions parked until their predecessors land.
        self._parked: dict[int, Sequence] = {}
        #: Next map index to merge (everything below is already merged).
        self._next = 0

    @property
    def complete(self) -> bool:
        """True once every map task's buckets are merged or parked."""
        return self._next + len(self._parked) == self.num_maps

    @property
    def columnar(self) -> bool:
        """True when this shuffle carries columnar blocks."""
        return bool(self._columnar)

    def add(self, map_index: int, buckets: "Sequence[Sequence[tuple[Any, Any]] "
            "| ColumnarBlock | ShmBlockRef]") -> None:
        """Consume one finished map task's per-reducer buckets.

        Validates the bucket count once per map task (the batch
        :func:`shuffle` used to re-check it R times).  In-order arrivals
        — the common case — merge directly
        without the parked-dict round trip.
        """
        if not 0 <= map_index < self.num_maps:
            raise ValueError(
                f"map_index {map_index} out of range [0, {self.num_maps})")
        if map_index < self._next or map_index in self._parked:
            raise ValueError(f"map task {map_index} already added")
        if len(buckets) != self.num_reducers:
            raise ValueError(
                f"map task produced {len(buckets)} buckets, "
                f"expected {self.num_reducers}"
            )
        # An all-empty contribution is representation-neutral: a map
        # task that emitted nothing (empty split, drained frontier)
        # merges as a no-op in either mode instead of dragging the
        # shuffle into its default representation and crashing the mix
        # check.  Only tasks with records decide/validate the mode.
        if any(len(b) for b in buckets):
            columnar = isinstance(buckets[0], (ColumnarBlock, ShmBlockRef))
            if self._columnar is None:
                self._columnar = columnar
            elif columnar != self._columnar:
                raise ValueError(
                    "cannot mix columnar and object map outputs in one "
                    "shuffle")
        if not self.defer_merge and map_index == self._next:
            self._merge(buckets)
            self._next += 1
            while self._next in self._parked:
                self._merge(self._parked.pop(self._next))
                self._next += 1
        else:
            self._parked[map_index] = buckets

    def invalidate(self, map_index: int) -> bool:
        """Drop one map task's parked contribution (lineage replay).

        A node death orphans the shuffle partitions its completed map
        tasks produced; the runtime invalidates them here and re-runs
        the tasks, whose replay attempts :meth:`add` fresh buckets.
        Only a ``defer_merge`` buffer can take contributions back —
        the eager merge dissolves them irreversibly.

        Returns whether the task had contributed (False is a no-op:
        the task was still in flight when its node died).
        """
        if not self.defer_merge:
            raise RuntimeError(
                "invalidate() needs a defer_merge buffer: eagerly merged "
                "contributions cannot be taken back")
        return self._parked.pop(map_index, None) is not None

    def _merge(self, buckets: Sequence) -> None:
        """Fold one map task's buckets into the per-reducer state."""
        if not any(len(b) for b in buckets):
            return  # representation-neutral no-op (see add())
        if self._columnar:
            for held, block in zip(self._blocks, buckets):
                held.append(block)
            return
        for table, bucket in zip(self._tables, buckets):
            # Hot loop: dict.get with locals beats setdefault (which
            # allocates a fresh list per call even for existing keys).
            get = table.get
            for k, v in bucket:
                vs = get(k)
                if vs is None:
                    table[k] = [v]
                else:
                    vs.append(v)

    def _check_complete(self) -> None:
        if not self.complete:
            raise RuntimeError(
                f"shuffle incomplete: {self._next + len(self._parked)}"
                f"/{self.num_maps} map tasks consumed"
            )
        # Seal a deferred buffer: fold the parked contributions in map
        # index order, reproducing the eager path's merge order exactly.
        while self._next in self._parked:
            self._merge(self._parked.pop(self._next))
            self._next += 1

    def columnar_runs(self) -> "list[ColumnarRun]":
        """Seal a columnar shuffle without reading it: per-reducer runs.

        ``columnar_runs()[r]`` lists reducer ``r``'s buckets in map-task
        order, whatever order the map tasks arrived in; grouping is left
        to whoever holds the run (:meth:`ColumnarRun.group`).
        """
        self._check_complete()
        if not self._columnar:
            raise RuntimeError(
                "columnar_runs() on an object-mode shuffle; use groups()")
        return [ColumnarRun(blocks, self.sort_keys) for blocks in self._blocks]

    def columnar_groups(self) -> "list[ColumnarGroups]":
        """Seal a columnar shuffle and return per-reducer grouped arrays."""
        return [run.group() for run in self.columnar_runs()]

    def groups(self) -> "list[list[tuple[Any, list]]]":
        """Seal the buffer and return per-reducer grouped inputs.

        ``groups()[r]`` is a list of ``(key, values)`` with all values
        for that key across all map tasks, in deterministic order —
        byte-identical whether the shuffle ran object or columnar.
        """
        self._check_complete()
        if self._columnar:
            return [g.to_pairs() for g in self.columnar_groups()]
        out: list[list[tuple[Any, list]]] = []
        for table in self._tables:
            keys = sorted(table) if self.sort_keys else list(table)
            out.append([(k, table[k]) for k in keys])
        return out


def shuffle(
    map_buckets: "Sequence[Sequence[Sequence[tuple[Any, Any]] | ColumnarBlock]]",
    num_reducers: int,
    *,
    sort_keys: bool = True,
) -> "list[list[tuple[Any, list]]]":
    """Merge per-map buckets into per-reducer grouped inputs (one pass).

    Parameters
    ----------
    map_buckets:
        ``map_buckets[m][r]`` is the list of (k, v) pairs — or the
        :class:`~repro.engine.columnar.ColumnarBlock` — map task ``m``
        assigned to reducer ``r``.
    num_reducers:
        Number of reduce partitions R.
    sort_keys:
        Sort each reducer's groups by key.  Keys must be mutually
        orderable in that case (they are for all bundled apps).

    Returns
    -------
    list
        ``groups[r]`` is a list of ``(key, values)`` with all values for
        that key across all map tasks, in deterministic order.
    """
    buf = ShuffleBuffer(len(map_buckets), num_reducers, sort_keys=sort_keys)
    for m, buckets in enumerate(map_buckets):
        buf.add(m, buckets)
    return buf.groups()


def shuffle_bytes(
    map_buckets: "Sequence[Sequence[Sequence[tuple[Any, Any]] | ColumnarBlock]]",
) -> int:
    """Total estimated bytes of intermediate data crossing the shuffle.

    The oracle measurement: tasks measure their own bytes worker-side
    (``TaskResult.nbytes`` — dtype itemsize math on the columnar path,
    the object map task's route-and-size pass) and the driver reuses
    those, so this scan only runs over an object reduce task's output,
    for direct callers, and in the tests pinning the two equal.
    """
    total = 0
    for m_bucket in map_buckets:
        for bucket in m_bucket:
            if isinstance(bucket, ColumnarBlock):
                total += bucket.nbytes
                continue
            for k, v in bucket:
                total += estimate_nbytes(k) + estimate_nbytes(v)
    return total
