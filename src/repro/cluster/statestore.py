"""Partitioned inter-round state stores — the §VIII state path, first-class.

The paper's §VIII names the online state store (Bigtable-like) as the
key system-level enhancement for iterative MapReduce.  Historically this
reproduction modelled the whole inter-round state as ONE scalar byte
count charged by :meth:`SimCluster.charge_state_roundtrip`, which made
the phenomena that decide whether an online store actually wins —
hot-key skew, per-tablet throughput, straggler tablets — invisible.

This module replaces the scalar with a subsystem.  A :class:`StateStore`
receives the **per-partition** byte vector each global round writes
between iterations and answers in simulated seconds:

* :class:`DFSStateStore` — Hadoop's behaviour: the reduce output is one
  replicated DFS file, written and re-read in aggregate.  Per-partition
  structure is irrelevant to the charge (one 3x-replicated block write
  of the sum), which is exactly today's — and the paper's — semantics.
* :class:`OnlineStateStore` — the Bigtable substitute: ``num_tablets``
  tablets (each priced by
  :data:`~repro.cluster.costmodel.ONLINE_STORE_MODEL`) split the
  state key space into contiguous key ranges.  Partitions own contiguous
  key ranges too, so each partition's bytes land on the tablets its
  range overlaps.  Tablets serve in parallel: a round costs the
  **hottest tablet** (max over tablets), so a skewed update distribution
  bottlenecks the round and more tablets shard the hot range thinner.

Every charge takes the charging cluster's
:class:`~repro.cluster.costmodel.CostModel` (the DFS prices) and a
``share`` — the slot/bandwidth fraction a multi-job scheduler granted
the calling job — so sessions whose jobs contend on one store see
per-job throughput shrink with their share (see
:class:`~repro.cluster.accountant.RoundAccountant`).  A store holds no
state values and no cluster: it prices byte counts and keeps the
per-tablet ledgers those charges leave behind.

:func:`resolve_state_store` turns a ``DriverConfig.state_store`` value
— the default ``"dfs"``, a :class:`StateStore` instance or a factory —
into a store.
"""

from __future__ import annotations

import abc
import bisect
from typing import Sequence

from repro.cluster.costmodel import CostModel, ONLINE_STORE_MODEL

__all__ = [
    "StateStore",
    "DFSStateStore",
    "OnlineStateStore",
    "resolve_state_store",
    "even_split",
]


def even_split(total: int, parts: int) -> "tuple[int, ...]":
    """Split ``total`` bytes into ``parts`` near-equal integer shares.

    The shares always sum to exactly ``total`` (the remainder is spread
    over the first few parts), which is what keeps aggregate charges
    identical to the historical scalar accounting when a spec does not
    report real per-partition update sizes.
    """
    if parts < 0:
        raise ValueError("parts must be >= 0")
    if parts == 0:
        return ()
    total = int(total)
    if total < 0:
        raise ValueError("total must be >= 0")
    base, rem = divmod(total, parts)
    return tuple(base + (1 if i < rem else 0) for i in range(parts))


def _validated(partition_bytes: Sequence[float]) -> "list[float]":
    pb = [float(b) for b in partition_bytes]
    if any(b < 0 for b in pb):
        raise ValueError("partition byte counts must be >= 0")
    return pb


class StateStore(abc.ABC):
    """Where inter-round state round-trips, partition-aware.

    One store instance can be shared by every job of a
    :class:`~repro.core.session.Session`, in which case all jobs write
    the same tablets and the store's cumulative statistics aggregate
    across jobs.  All methods return simulated seconds; they never touch
    a cluster clock themselves — the accountant charges the result —
    and every DFS price comes from the ``cost_model`` of the charge, so
    a store reused on another cluster prices with that cluster's.

    Attributes
    ----------
    durable:
        ``True`` when the store survives failures by construction (the
        replicated DFS).  Non-durable stores need the periodic DFS
        checkpoint of ``DriverConfig.checkpoint_every`` — the paper's
        "issues of fault tolerance must be resolved" caveat.
    rounds:
        Rounds charged through this store so far (all jobs).
    """

    name: str = "?"
    durable: bool = False

    def __init__(self) -> None:
        self.rounds: int = 0

    @abc.abstractmethod
    def write_round(self, partition_bytes: Sequence[float], *,
                    cost_model: CostModel, share: float = 1.0) -> float:
        """Seconds to persist one round's per-partition state writes."""

    @abc.abstractmethod
    def read_round(self, partition_bytes: Sequence[float], *,
                   cost_model: CostModel, share: float = 1.0) -> float:
        """Seconds for the next round's maps to read that state back."""

    def round_trip(self, partition_bytes: Sequence[float], *,
                   cost_model: CostModel, share: float = 1.0) -> float:
        """One inter-round state round trip: write + read-back.  A
        rejected byte vector counts no round."""
        partition_bytes = _validated(partition_bytes)
        self.rounds += 1
        return (self.write_round(partition_bytes, cost_model=cost_model,
                                 share=share)
                + self.read_round(partition_bytes, cost_model=cost_model,
                                  share=share))

    def checkpoint(self, partition_bytes: Sequence[float], *,
                   cost_model: CostModel, share: float = 1.0) -> float:
        """Seconds of a full durability checkpoint of the state
        (``0.0`` for stores that are durable by construction)."""
        return 0.0


class DFSStateStore(StateStore):
    """Today's semantics: state is one replicated DFS file per round.

    The reduce output is committed as a single file — a 3x-replicated
    block write of the *aggregate* bytes plus the fixed NameNode/commit
    cost — and the next maps read the aggregate back.  Per-partition
    structure does not change the charge; with any partition split that
    sums to the old scalar, this store is charge-for-charge identical
    to the historical ``charge_state_roundtrip(nbytes, store="dfs")``.
    """

    name = "dfs"
    durable = True

    def write_round(self, partition_bytes: Sequence[float], *,
                    cost_model: CostModel, share: float = 1.0) -> float:
        total = sum(_validated(partition_bytes))
        return cost_model.dfs_write_seconds(total, share=share)

    def read_round(self, partition_bytes: Sequence[float], *,
                   cost_model: CostModel, share: float = 1.0) -> float:
        total = sum(_validated(partition_bytes))
        return cost_model.dfs_read_seconds(total, share=share)


class OnlineStateStore(StateStore):
    """§VIII's Bigtable substitute: key-range-sharded tablets.

    The state key space ``[0, 1)`` is covered twice over by contiguous
    ranges: partition ``p`` of ``P`` owns ``[p/P, (p+1)/P)`` and tablet
    ``t`` serves ``[boundaries[t], boundaries[t+1])``.  Tablets start
    equal-width (``num_tablets`` of them); with a ``split_threshold``
    the map is *versioned and mutable* — Bigtable's auto-splitting.  A
    partition's round bytes spread uniformly over its key range, so a
    tablet receives every overlapping partition's proportional share.
    Tablets serve requests in parallel, each at the
    :data:`~repro.cluster.costmodel.ONLINE_STORE_MODEL` throughput, and
    a round's write (or read) costs the **slowest tablet** — the hot
    tablet is the round's bottleneck, and splitting the hot range shards
    it thinner.

    A uniform byte vector keeps every tablet at ``total/T``; with
    ``num_tablets=1`` the single tablet receives the aggregate, making
    the charge identical to the historical scalar
    ``charge_state_roundtrip(nbytes, store="online")``.

    Fault tolerance is the paper's unresolved caveat: the store is not
    durable, and :meth:`checkpoint` prices the full replicated DFS
    write of the state that ``DriverConfig.checkpoint_every`` buys.

    Attributes
    ----------
    boundaries:
        The live tablet map: ``num_tablets + 1`` ascending key-space
        cut points from 0.0 to 1.0.
    tablet_bytes:
        Cumulative bytes served per tablet (all jobs of a session) —
        the observable load-skew profile, and the trigger for
        auto-splitting.
    last_round_tablet_seconds:
        Per-tablet write+read seconds of the most recent round trip;
        ``max`` of it is exactly what the round was charged.
    versions:
        Latest published version per partition (the no-barrier
        :meth:`publish` path; empty for round-trip-only usage).
        Partition-keyed, so the ledger survives tablet splits intact.
    tablet_map_version / split_events:
        Version of the tablet map (bumped once per split or merge) and
        the split log: ``(map_version, tablet_index, split_key, round)``
        tuples.
    merge_events:
        The merge log: ``(map_version, tablet_index, removed_boundary,
        round)`` tuples — tablet ``tablet_index`` absorbed its right
        neighbour and the boundary between them disappeared.
    """

    name = "online"
    durable = False

    def __init__(self, num_tablets: int = 8, *,
                 split_threshold: "float | None" = None,
                 merge_threshold: "float | None" = None,
                 max_tablets: int = 64) -> None:
        super().__init__()
        if num_tablets < 1:
            raise ValueError("num_tablets must be >= 1")
        if split_threshold is not None and split_threshold <= 0:
            raise ValueError("split_threshold must be > 0 (or None)")
        if merge_threshold is not None and merge_threshold <= 0:
            raise ValueError("merge_threshold must be > 0 (or None)")
        if (split_threshold is not None and merge_threshold is not None
                and merge_threshold > split_threshold):
            raise ValueError(
                "merge_threshold must be <= split_threshold (a merged "
                "tablet above the split trigger would oscillate)")
        if max_tablets < num_tablets:
            raise ValueError("max_tablets must be >= num_tablets")
        self.boundaries: "list[float]" = [
            t / num_tablets for t in range(num_tablets)] + [1.0]
        self.split_threshold = split_threshold
        self.merge_threshold = merge_threshold
        self.max_tablets = int(max_tablets)
        self.tablet_bytes: "list[int]" = [0] * num_tablets
        self.last_round_tablet_seconds: "list[float]" = [0.0] * num_tablets
        self.versions: "dict[int, int]" = {}
        self.tablet_map_version: int = 0
        self.split_events: "list[tuple[int, int, float, int]]" = []
        self.merge_events: "list[tuple[int, int, float, int]]" = []
        # Observed per-partition byte profile — the per-key load model
        # behind load-aware split points.  Reset whenever the partition
        # count of the served vectors changes (a different job shape).
        self._profile: "dict[int, float]" = {}
        self._profile_parts: int = 0
        # Per-partition routes onto the tablets, for one tablet map and
        # one partition count (:meth:`_routes`).
        self._route_key: "tuple[int, int] | None" = None
        self._route_list: "list[tuple]" = []

    @property
    def num_tablets(self) -> int:
        """Live tablet count (grows as auto-splitting fires)."""
        return len(self.boundaries) - 1

    # -- sharding -------------------------------------------------------
    def _range_tablets(self, lo: float, hi: float) -> "tuple[int, int]":
        """Inclusive tablet index range overlapping key range [lo, hi)."""
        bounds = self.boundaries
        T = len(bounds) - 1
        t_first = min(T - 1, max(0, bisect.bisect_right(bounds, lo) - 1))
        t_last = min(T - 1, max(0, bisect.bisect_left(bounds, hi - 1e-12) - 1))
        return t_first, t_last

    def _routes(self, P: int) -> "list[tuple]":
        """Per partition of ``P``, the ``(tablet, factor)`` pairs its key
        range spreads over: its bytes times ``factor`` land on
        ``tablet`` (``1.0`` for a range inside one tablet).  Cached until
        the tablet map or ``P`` changes."""
        if self._route_key != (self.tablet_map_version, P):
            bounds = self.boundaries
            routes = []
            for p in range(P):
                lo, hi = p / P, (p + 1) / P
                t_first, t_last = self._range_tablets(lo, hi)
                routes.append(((t_first, 1.0),) if t_first == t_last else tuple(
                    # overlap / (hi - lo)
                    (t, (min(hi, bounds[t + 1]) - max(lo, bounds[t])) * P)
                    for t in range(t_first, t_last + 1)))
            self._route_key, self._route_list = (self.tablet_map_version, P), routes
        return self._route_list

    def _load(self, partition_bytes: Sequence[float], *,
              note: bool) -> "dict[int, float]":
        """Bytes per touched tablet of one partition byte vector, summed
        in partition order, in one pass that also checks the vector;
        with ``note``, a vector that passed is then folded into the load
        profile, so a rejected one leaves the profile as it was."""
        P = len(partition_bytes)
        routes = self._routes(P)
        load: "dict[int, float]" = {}
        touched: "list[tuple[int, float]]" = []
        for p, b in enumerate(partition_bytes):
            if b <= 0:
                if b < 0:
                    raise ValueError("partition byte counts must be >= 0")
                continue
            b = float(b)
            touched.append((p, b))
            for t, factor in routes[p]:
                load[t] = load.get(t, 0.0) + b * factor
        if note and P:
            profile = self._profile_of(P)
            for p, b in touched:
                profile[p] = profile.get(p, 0.0) + b
        return load

    def imbalance(self) -> float:
        """Hottest tablet's cumulative load relative to the mean (1.0 =
        perfectly balanced); the skew headline number for benchmarks."""
        total = sum(self.tablet_bytes)
        if total == 0:
            return 1.0
        return max(self.tablet_bytes) * self.num_tablets / total

    def _profile_of(self, P: int) -> "dict[int, float]":
        """The load profile of ``P``-partition vectors: a fresh one when
        ``P`` differs from the vectors served before (another job shape)."""
        if P != self._profile_parts:
            self._profile, self._profile_parts = {}, P
        return self._profile

    # -- charges --------------------------------------------------------
    def _serve(self, partition_bytes: Sequence[float], seconds, *,
               share: float) -> float:
        """Serve one round's write or read: every tablet at once, an idle
        one for its bare op latency; the round waits for the slowest."""
        load = self._load(partition_bytes, note=True)
        secs = [seconds(load.get(t, 0.0), share=share)
                for t in range(self.num_tablets)]
        for t, b in load.items():
            self.tablet_bytes[t] += int(b)
        for t, s in enumerate(secs):
            self.last_round_tablet_seconds[t] += s
        return max(secs)

    # -- auto-splitting -------------------------------------------------
    def _split_point(self, t: int) -> float:
        """Load-aware split key for tablet ``t``.

        Bigtable splits a tablet where the *data* says to, not where
        the key range's midpoint happens to fall: the chosen key is the
        byte-weighted median of the observed per-partition load profile
        restricted to the tablet's range (each partition's bytes spread
        uniformly over its own key range, so the profile is a
        piecewise-constant density).  With no observations in range the
        midpoint is the fallback; either way the point is clamped
        strictly inside the range so both children are non-empty.
        """
        lo, hi = self.boundaries[t], self.boundaries[t + 1]
        mid = (lo + hi) / 2.0
        P = self._profile_parts
        point = mid
        if P and self._profile:
            # Segments of the piecewise-constant density inside [lo, hi).
            segs: "list[tuple[float, float, float]]" = []
            total = 0.0
            for p in range(max(0, int(lo * P)), min(P, int(hi * P) + 1)):
                b = self._profile.get(p, 0.0)
                if b <= 0:
                    continue
                olo = max(lo, p / P)
                ohi = min(hi, (p + 1) / P)
                if ohi <= olo:
                    continue
                w = b * (ohi - olo) * P   # bytes falling inside [olo, ohi)
                segs.append((olo, ohi, w))
                total += w
            if total > 0:
                half, acc = total / 2.0, 0.0
                for olo, ohi, w in segs:
                    if acc + w >= half:
                        point = olo + (half - acc) / w * (ohi - olo)
                        break
                    acc += w
        eps = (hi - lo) * 1e-6
        return min(hi - eps, max(lo + eps, point))

    def _split(self, t: int) -> None:
        """Split tablet ``t`` at its load-aware split key.

        The two children each inherit half the parent's cumulative
        statistics (bytes, last-round seconds), so the load
        profile and the split trigger stay meaningful across the split.
        """
        mid = self._split_point(t)
        self.boundaries.insert(t + 1, mid)
        b = self.tablet_bytes[t]
        self.tablet_bytes[t:t + 1] = [b - b // 2, b // 2]
        s = self.last_round_tablet_seconds[t]
        self.last_round_tablet_seconds[t:t + 1] = [s / 2.0, s / 2.0]
        self.tablet_map_version += 1
        self.split_events.append((self.tablet_map_version, t, mid, self.rounds))

    def _maybe_split(self) -> int:
        """Split every tablet whose cumulative bytes crossed the
        threshold (children are re-examined, so a very hot tablet can
        split more than once); returns the number of splits."""
        if self.split_threshold is None:
            return 0
        before = self.tablet_map_version
        t = 0
        while t < self.num_tablets:
            if (self.num_tablets < self.max_tablets
                    and self.tablet_bytes[t] >= self.split_threshold):
                self._split(t)
            else:
                t += 1
        return self.tablet_map_version - before

    # -- merging --------------------------------------------------------
    def _merge(self, t: int) -> None:
        """Tablet ``t`` absorbs its right neighbour: the boundary
        between them disappears and the survivor inherits the absorbed
        tablet's cumulative statistics."""
        removed = self.boundaries[t + 1]
        del self.boundaries[t + 1]
        self.tablet_bytes[t:t + 2] = [
            self.tablet_bytes[t] + self.tablet_bytes[t + 1]]
        self.last_round_tablet_seconds[t:t + 2] = [
            self.last_round_tablet_seconds[t]
            + self.last_round_tablet_seconds[t + 1]]
        self.tablet_map_version += 1
        self.merge_events.append(
            (self.tablet_map_version, t, removed, self.rounds))

    def _maybe_merge(self) -> int:
        """Merge adjacent cold tablet pairs whose combined cumulative
        bytes stay under the threshold (a merged tablet is re-examined
        against its next neighbour, so a run of cold tablets collapses
        in one pass); returns the number of merges.  The map never
        shrinks below one tablet."""
        if self.merge_threshold is None or not any(self.tablet_bytes):
            # A never-loaded map is not "cold", it is unobserved — the
            # first round must see the configured tablet count.
            return 0
        before = self.tablet_map_version
        t = 0
        while t < self.num_tablets - 1:
            if (self.tablet_bytes[t] + self.tablet_bytes[t + 1]
                    < self.merge_threshold):
                self._merge(t)
            else:
                t += 1
        return self.tablet_map_version - before

    def write_round(self, partition_bytes: Sequence[float], *,
                    cost_model: CostModel, share: float = 1.0) -> float:
        # Splits and merges take effect at round boundaries so the write
        # and the read-back of one round trip see the same tablet map.
        self._maybe_split()
        self._maybe_merge()
        self.last_round_tablet_seconds = [0.0] * self.num_tablets
        return self._serve(partition_bytes, ONLINE_STORE_MODEL.write_seconds,
                           share=share)

    def read_round(self, partition_bytes: Sequence[float], *,
                   cost_model: CostModel, share: float = 1.0) -> float:
        return self._serve(partition_bytes, ONLINE_STORE_MODEL.read_seconds,
                           share=share)

    def checkpoint(self, partition_bytes: Sequence[float], *,
                   cost_model: CostModel, share: float = 1.0) -> float:
        """Full replicated DFS write of the state — the §VIII
        fault-tolerance resolution, priced like the block path always
        priced it."""
        total = sum(_validated(partition_bytes))
        return cost_model.dfs_write_seconds(total, share=share)

    # -- no-barrier publish/consume (the AsyncBackend path) -------------
    def publish(self, partition: int, nbytes: float, *, version: int,
                num_partitions: int, share: float = 1.0) -> float:
        """Seconds to publish one partition's slice at ``version``.

        The no-barrier write path: instead of a whole round's byte
        vector landing at once, each partition streams its slice to the
        tablets its key range overlaps as soon as its local solve ends.
        Versions per partition must be monotone (each publish supersedes
        the previous one); the served time is the slowest touched
        tablet, exactly the :meth:`write_round` discipline applied to a
        one-partition vector.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if version <= self.versions.get(partition, 0) - 1:
            raise ValueError(
                f"publish version {version} for partition {partition} would "
                f"go backwards (latest is {self.versions.get(partition, 0)})")
        profile = self._profile_of(num_partitions)
        top, b = 0.0, float(nbytes)
        if b:
            profile[partition] = profile.get(partition, 0.0) + b
            # only the publisher's route: the other partitions send nothing
            for t, factor in self._routes(num_partitions)[partition]:
                tb = b * factor
                self.tablet_bytes[t] += int(tb)
                top = max(top, tb)
        # A tablet's seconds grow with its bytes: the fullest is the slowest.
        secs = ONLINE_STORE_MODEL.write_seconds(top, share=share) if top else 0.0
        self.versions[partition] = max(version, self.versions.get(partition, 0))
        # No-barrier path has no round boundary; split as soon as the
        # publish that crossed the threshold lands.  Version ledgers are
        # partition-keyed, so they survive the remap untouched.
        self._maybe_split()
        return secs

    def consume(self, partition_bytes: Sequence[float], *,
                share: float = 1.0) -> float:
        """Seconds for one partition to read its neighbours' slices.

        ``partition_bytes`` carries the bytes read per source partition
        (0 for slices the reader already holds).  Served time is the
        slowest touched tablet.  How stale the served versions were is
        the reader's record (``RoundRecord.version_vector``).
        """
        load = self._load(partition_bytes, note=True)
        for t, b in load.items():
            self.tablet_bytes[t] += int(b)
        top = max(load.values(), default=0.0)
        secs = ONLINE_STORE_MODEL.read_seconds(top, share=share) if top else 0.0
        self._maybe_split()
        return secs


def resolve_state_store(spec) -> StateStore:
    """Turn a ``DriverConfig.state_store`` value into a store.

    ``spec`` may be a :class:`StateStore` instance (returned as-is —
    sharing one instance across jobs is how a session makes them
    contend on the same tablets), a zero-argument factory, or the
    default ``"dfs"`` (a fresh :class:`DFSStateStore`).
    """
    if isinstance(spec, StateStore):
        return spec
    if isinstance(spec, str):
        if spec == "dfs":
            return DFSStateStore()
        raise ValueError(
            f"state_store must be 'dfs', a StateStore instance or a "
            f"factory, got {spec!r}")
    if callable(spec):
        store = spec()
        if not isinstance(store, StateStore):
            raise TypeError(
                f"state_store factory must return a StateStore, "
                f"got {type(store).__name__}")
        return store
    raise TypeError(
        f"state_store must be 'dfs', a StateStore instance or a "
        f"factory, got {type(spec).__name__}")
