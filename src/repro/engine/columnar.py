"""Columnar shuffle fast path: typed record batches through the engine.

The object-at-a-time engine spends most of its wall-clock on per-record
interpreter work: one ``partitioner(k, R)`` call and one list append to
route every pair, one ``dict.setdefault`` to group it, and two
``estimate_nbytes`` calls to measure it.  For the array-valued iterative
apps the paper cares about (PageRank, SSSP, Jacobi, k-means) every one
of those records is an ``(int64 key, float64 row)`` — so the whole
shuffle can run on NumPy instead:

* :class:`ColumnarBlock` — one task's typed batch: an int64 key array
  plus a float64 value array (``(n,)`` or ``(n, w)`` for multi-column
  rows).  Byte accounting is dtype itemsize math (``arr.nbytes``),
  which coincides exactly with :func:`~repro.cluster.dfs.estimate_nbytes`'s
  8-bytes-per-number estimate for the materialised pairs.
* :class:`StringDictionary` — interning table that dictionary-encodes
  string keys as dense int64 ids, so wordcount-style jobs ride the same
  vectorised shuffle; the reverse table travels with the block and byte
  accounting stays the object path's utf-8 length per key.
* :func:`stable_key_order` — the one grouping kernel: a stable argsort
  of int64 keys (a 16-bit radix pass for narrow spans, else one SIMD
  sort of key-and-position composites) that every grouping and routing
  sort below goes through.
* :func:`route_columnar` — vectorised partition routing: one FNV-1a
  hash sweep (:func:`hash_buckets`, bit-identical to
  :class:`~repro.engine.partitioner.HashPartitioner`), one kernel sort
  of the bucket ids and bincount-derived slices instead of a per-pair
  append loop.
* :func:`route_combine_columnar` — the fused map tail (the paper's
  partial aggregation lever, §V-B): one kernel sort of the records by
  key, run boundaries from one neighbour comparison, a segmented
  ``ufunc.reduceat``, then routing of the combined uniques.
* :class:`ColumnarGroups` — reduce-side grouping by the same sort +
  run-boundary layout instead of dict-of-lists; aggregates with the
  same segmented primitive and can materialise the exact object-path
  ``groups()`` output on demand (the oracle contract the equivalence
  tests pin).

Plan and apply.  Both the map tail and the reduce-side grouping are
split in two: a *plan* built from the keys alone
(:class:`RouteCombinePlan`: stable order, segment starts, output
permutation, bucket bounds, output keys; :class:`GroupPlan`: stable
order, distinct keys, run bounds, group output order), and an *apply*
over the values (a gather, the one :func:`segment_aggregate`, a
gather).  :func:`route_combine_columnar` and :func:`group_columnar`
are build-then-apply, so every executor runs the same arithmetic.  An
iterative job re-emits the same keys every round; a process-pool worker
keeps each task slot's last plan and applies it again when the keys are
exactly equal (:func:`repro.engine.task.keep_plans`), which skips every
sort and gives the same bits as a fresh build.

The kernel lives in :mod:`repro.util.radix` (the graph layer sorts
edge lists through it too) and is re-exported here; its module
docstring says why it looks the way it does.

Why grouping by key alone is enough.  A key maps to exactly one
bucket, so the key groups of a batch *are* its (bucket, key) groups:
the only record-length sort is the combine's sort by key, and the
partitioner, the bucket clustering and the emission ordering all run
over the combined uniques — which is also where the object path calls
the partitioner (after the combiner).

Determinism mirrors the object path record for record: stable sorts
preserve (map task index, emission order) within every bucket and every
key group, and unsorted group order follows first emission — so
materialising a columnar shuffle is *byte-identical* to running the
same logical pairs through the object path.

Floating-point note: both the columnar and the object-path spellings of
the built-in aggregations ("sum" / "min" / "max") funnel through
:func:`segment_aggregate`, so the two paths perform additions in the
same association order and combined values compare equal bitwise, not
just approximately.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.engine.partitioner import (
    HashPartitioner,
    _FNV_OFFSET,
    _FNV_PRIME,
    stable_hash,
)
from repro.util.radix import stable_key_order

__all__ = [
    "ColumnarBlock",
    "ColumnarGroups",
    "ColumnarReduce",
    "StringDictionary",
    "AGG_UFUNCS",
    "hash_buckets",
    "partition_each",
    "stable_key_order",
    "route_columnar",
    "route_combine_columnar",
    "RouteCombinePlan",
    "GroupPlan",
    "group_columnar",
    "segment_aggregate",
    "resolve_agg",
    "object_combiner",
    "object_reducer",
    "as_columnar_reduce",
]

#: Built-in aggregations usable as map-side combiners and reduce ops.
AGG_UFUNCS: "dict[str, np.ufunc]" = {
    "sum": np.add,
    "min": np.minimum,
    "max": np.maximum,
}

#: Reused ascending-index scratch (see :func:`_arange`).
_ARANGE_SCRATCH = np.empty(0, dtype=np.int64)


def _arange(n: int) -> np.ndarray:
    """A read-only view of ``arange(n)`` from a growing shared scratch.

    Group layouts need an identity output permutation every round; the
    scratch amortises that allocation across rounds.  Callers only ever
    index with the result, never write through it.  Thread-safe by
    immutability: a racing grow swaps in a fresh array while earlier
    slices keep their (static) contents.
    """
    global _ARANGE_SCRATCH
    if len(_ARANGE_SCRATCH) < n:
        _ARANGE_SCRATCH = np.arange(max(n, 2 * len(_ARANGE_SCRATCH)),
                                    dtype=np.int64)
    return _ARANGE_SCRATCH[:n]


def resolve_agg(agg: str) -> np.ufunc:
    """Look up a named aggregation; raises ``ValueError`` on unknowns."""
    try:
        return AGG_UFUNCS[agg]
    except KeyError:
        raise ValueError(
            f"unknown aggregation {agg!r}; choose from {sorted(AGG_UFUNCS)}"
        ) from None


class StringDictionary:
    """Interning table: string keys <-> dense int64 dictionary ids.

    Dictionary encoding is what makes string-keyed jobs (wordcount and
    friends) columnar-eligible: records carry int64 ids through every
    vectorised routing/grouping op while the reverse table rides along
    as block metadata.  Parity with the object path is preserved at the
    two places the key *representation* leaks out:

    * routing — :meth:`buckets` hashes the decoded word with
      :func:`~repro.engine.partitioner.stable_hash` (cached per vocab
      entry, applied per record with one fancy-index gather), so every
      record lands in the same reducer the object path's
      ``HashPartitioner(word, R)`` picks;
    * byte accounting — :meth:`utf8_nbytes` charges the utf-8 length of
      the decoded word per record, exactly
      :func:`~repro.cluster.dfs.estimate_nbytes` on the materialised
      pair.

    Ids are assigned in interning order, so a dictionary built while
    scanning emissions gives first-emission id order — the object
    path's dict-insertion order, which the group-ordering contract
    relies on.
    """

    __slots__ = ("_ids", "_words", "_hash", "_utf8")

    def __init__(self, words: "Iterable[str]" = ()) -> None:
        self._ids: "dict[str, int]" = {}
        self._words: "list[str]" = []
        #: Cached per-vocab-entry stable_hash / utf-8 length arrays.
        self._hash: "np.ndarray | None" = None
        self._utf8: "np.ndarray | None" = None
        for w in words:
            self.intern(w)

    def __len__(self) -> int:
        return len(self._words)

    def intern(self, word: str) -> int:
        """Return ``word``'s id, assigning the next dense id if new."""
        if not isinstance(word, str):
            raise TypeError(
                f"dictionary keys must be str, got {type(word).__name__}")
        wid = self._ids.get(word)
        if wid is None:
            wid = len(self._words)
            self._ids[word] = wid
            self._words.append(word)
            self._hash = None
            self._utf8 = None
        return wid

    def encode(self, words: "Iterable[str]") -> np.ndarray:
        """Intern a sequence of words into an int64 id array."""
        return np.fromiter((self.intern(w) for w in words), dtype=np.int64)

    def decode(self, ids: np.ndarray) -> "list[str]":
        """Materialise words for an id array (the oracle direction)."""
        words = self._words
        return [words[i] for i in ids.tolist()]

    def _hash_table(self) -> np.ndarray:
        if self._hash is None or len(self._hash) != len(self._words):
            self._hash = np.fromiter(
                (stable_hash(w) for w in self._words),
                dtype=np.uint64, count=len(self._words))
        return self._hash

    def _utf8_table(self) -> np.ndarray:
        if self._utf8 is None or len(self._utf8) != len(self._words):
            self._utf8 = np.fromiter(
                (len(w.encode("utf-8")) for w in self._words),
                dtype=np.int64, count=len(self._words))
        return self._utf8

    def buckets(self, ids: np.ndarray, num_reducers: int) -> np.ndarray:
        """Reducer of every record: ``stable_hash(word) % R``, vectorised."""
        if num_reducers <= 0:
            raise ValueError("num_reducers must be > 0")
        return (self._hash_table()[ids]
                % np.uint64(num_reducers)).astype(np.int64)

    def utf8_nbytes(self, ids: np.ndarray) -> int:
        """Total utf-8 bytes of the decoded keys (byte-accounting parity)."""
        if len(ids) == 0:
            return 0
        return int(self._utf8_table()[ids].sum())

    def sort_order(self, ids: np.ndarray) -> np.ndarray:
        """Permutation ordering ``ids`` by their decoded words.

        NumPy's unicode comparison and Python's ``str`` comparison are
        both code-point order, so this matches the object path's
        ``sorted(table)`` over string keys exactly.
        """
        if len(ids) == 0:
            return _arange(0)
        words = np.array([self._words[i] for i in ids.tolist()])
        return np.argsort(words, kind="stable")

    def remap_from(self, other: "StringDictionary") -> np.ndarray:
        """Intern ``other``'s vocabulary; returns old-id -> new-id map."""
        return np.fromiter((self.intern(w) for w in other._words),
                           dtype=np.int64, count=len(other._words))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StringDictionary(vocab={len(self)})"


def _is_string_keys(keys: np.ndarray) -> bool:
    """True for arrays the dictionary encoder should intern."""
    if keys.dtype.kind in ("U", "S"):
        return True
    return bool(keys.dtype == object and keys.size
                and all(isinstance(k, str) for k in keys.flat))


class ColumnarBlock:
    """A typed batch of (key, value) records.

    Keys are int64, values float64 — either a flat ``(n,)`` vector or an
    ``(n, w)`` row matrix for multi-column values (e.g. PageRank's
    ``(rank, contribution)`` rows).  Inputs are coerced/validated once at
    construction so every later operation is a plain array op.

    String keys are accepted too: they are dictionary-encoded on entry
    (or looked up in a caller-provided :class:`StringDictionary`), so
    ``keys`` always holds int64 ids and ``dictionary`` the reverse
    table (``None`` for plain integer keys).
    """

    __slots__ = ("keys", "values", "dictionary")

    def __init__(self, keys: Any, values: Any,
                 dictionary: "StringDictionary | None" = None) -> None:
        keys = np.asarray(keys)
        if _is_string_keys(keys):
            if dictionary is None:
                dictionary = StringDictionary()
            keys = dictionary.encode(keys.tolist())
        elif keys.dtype == object or not (
                keys.size == 0 or np.issubdtype(keys.dtype, np.integer)):
            # A forced int64 cast would silently truncate float keys,
            # merging records the object path keeps distinct.
            raise TypeError(
                f"keys must be integers or strings, got dtype {keys.dtype}")
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if keys.ndim != 1:
            raise ValueError(f"keys must be 1-D, got shape {keys.shape}")
        if values.ndim not in (1, 2):
            raise ValueError(
                f"values must be (n,) or (n, w), got shape {values.shape}")
        if values.shape[0] != keys.shape[0]:
            raise ValueError(
                f"{keys.shape[0]} keys but {values.shape[0]} value rows")
        if dictionary is not None and keys.size and (
                keys.min() < 0 or keys.max() >= len(dictionary)):
            raise ValueError("dictionary id out of range for vocabulary")
        self.keys = keys
        self.values = values
        self.dictionary = dictionary

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def width(self) -> int:
        """Value columns per record (1 for flat value vectors)."""
        return 1 if self.values.ndim == 1 else int(self.values.shape[1])

    @property
    def nbytes(self) -> int:
        """Shuffle bytes of this batch, from dtype itemsize math.

        Equals ``shuffle_bytes`` over the materialised pairs: 8 bytes
        per key + 8 per value number for integer keys, the utf-8 length
        per decoded key for dictionary-encoded string keys — with no
        per-object traversal.
        """
        if self.dictionary is not None:
            return int(self.dictionary.utf8_nbytes(self.keys)
                       + self.values.nbytes)
        return int(self.keys.nbytes + self.values.nbytes)

    @classmethod
    def concat(cls, blocks: "Sequence[ColumnarBlock]") -> "ColumnarBlock":
        """Concatenate batches in order (emission / map-index order).

        Dictionary-encoded batches merge their vocabularies in block
        order — later blocks' ids are remapped into the merged table,
        so first-emission id order is preserved across the whole
        concatenation (the object path's dict-insertion order).
        """
        blocks = list(blocks)
        if not blocks:
            return cls(np.empty(0, dtype=np.int64), np.empty(0))
        if len(blocks) == 1:
            return blocks[0]
        widths = {b.width for b in blocks}
        if len(widths) > 1:
            raise ValueError(
                f"cannot concat blocks of mixed value widths {sorted(widths)}")
        dicts = [b.dictionary for b in blocks]
        if any(d is not None for d in dicts):
            if any(d is None for d in dicts):
                raise ValueError(
                    "cannot concat dictionary-encoded and plain integer "
                    "key blocks")
            merged = StringDictionary()
            keys = [merged.remap_from(b.dictionary)[b.keys] for b in blocks]
            return cls(np.concatenate(keys),
                       np.concatenate([b.values for b in blocks], axis=0),
                       merged)
        return cls(np.concatenate([b.keys for b in blocks]),
                   np.concatenate([b.values for b in blocks], axis=0))

    def key_objects(self) -> list:
        """Keys as object-path Python keys (ints, or decoded words)."""
        if self.dictionary is not None:
            return self.dictionary.decode(self.keys)
        return self.keys.tolist()

    def to_pairs(self) -> "list[tuple[Any, Any]]":
        """Materialise the batch as object-path pairs.

        The oracle contract: ``(key, float value)`` for flat values,
        ``(key, (float, ...) tuple)`` for rows — with int keys for
        plain blocks and decoded str keys for dictionary-encoded ones —
        exactly what an object-path map emitting the same records would
        produce.
        """
        ks = self.key_objects()
        if self.values.ndim == 1:
            return list(zip(ks, self.values.tolist()))
        return list(zip(ks, map(tuple, self.values.tolist())))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dic = f", vocab={len(self.dictionary)}" if self.dictionary else ""
        return f"ColumnarBlock(n={len(self)}, width={self.width}{dic})"


# ----------------------------------------------------------------------
# Vectorised routing
# ----------------------------------------------------------------------

def hash_buckets(keys: np.ndarray, num_reducers: int) -> np.ndarray:
    """Vectorised ``stable_hash(int(k)) % num_reducers`` for int64 keys.

    Replays :func:`~repro.engine.partitioner.stable_hash`'s FNV-1a over
    the same 17 bytes (type prefix + 16-byte little-endian two's
    complement) with whole-array xor/multiply sweeps, so the bucket of
    every key is identical to the object path's ``HashPartitioner`` —
    the property the columnar/object equivalence tests pin.

    Only the rounds whose byte varies are swept.  The prefix round is a
    constant; and in a batch without a negative key every byte past the
    widest key's last is ``0x00``, where ``h ^= 0; h *= p`` repeated
    *j* times is one ``h *= p**j`` — so the sweeps follow the observed
    ``keys.max()``, as :func:`stable_key_order`'s sorts follow the
    span.  A batch with a negative key takes all sixteen rounds.
    """
    if num_reducers <= 0:
        raise ValueError("num_reducers must be > 0")
    k = np.ascontiguousarray(keys, dtype=np.int64)
    bits = k.view(np.uint64)
    lo, hi = (int(k.min()), int(k.max())) if k.size else (0, 0)
    width = 8 if lo < 0 else (hi.bit_length() + 7) // 8
    # stable_hash's int type prefix, 0x02, folded into the start value.
    h = np.full(k.shape, (_FNV_OFFSET ^ 0x02) * _FNV_PRIME % (1 << 64),
                dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    mask = np.uint64(0xFF)
    for shift in range(0, 8 * width, 8):
        h ^= (bits >> np.uint64(shift)) & mask
        h *= prime
    if lo < 0:
        # Bytes 8..15 of the 128-bit little-endian encoding: pure sign
        # extension of the int64 (0x00 for >= 0, 0xFF for < 0).
        ext = np.where(k < 0, mask, np.uint64(0))
        for _ in range(8):
            h ^= ext
            h *= prime
    else:
        h *= np.uint64(pow(_FNV_PRIME, 16 - width, 1 << 64))
    return (h % np.uint64(num_reducers)).astype(np.int64)


def _hash_routed(partitioner: "Callable[[Any, int], int] | None") -> bool:
    """True when ``partitioner`` is the default hash routing.

    Exact type check: a :class:`HashPartitioner` subclass may override
    ``__call__`` and must be honoured through the per-key fallback.
    """
    return partitioner is None or type(partitioner) is HashPartitioner


def _bucket_ids(keys: np.ndarray, dictionary: "StringDictionary | None",
                num_reducers: int,
                partitioner: "Callable[[Any, int], int] | None") -> np.ndarray:
    """Reducer assignment of every key, matching the object path.

    A (default) :class:`HashPartitioner` routes with one vectorised
    hash sweep (over decoded-word hashes for dictionary-encoded keys);
    any other partitioner is honoured through a per-key fallback call
    on the object-path key (correct, but not the fast path).
    """
    if _hash_routed(partitioner):
        if dictionary is not None:
            return dictionary.buckets(keys, num_reducers)
        return hash_buckets(keys, num_reducers)
    objects = dictionary.decode(keys) if dictionary is not None else keys.tolist()
    return partition_each(objects, partitioner, num_reducers)


def partition_each(keys: "Sequence[Any]",
                   partitioner: "Callable[[Any, int], int]",
                   num_reducers: int) -> np.ndarray:
    """``partitioner(k, num_reducers)`` for every key, in order, as an
    int64 array — the per-key route of both shuffle paths.

    Each reducer id is checked as it is returned: one outside
    ``[0, num_reducers)`` raises ``IndexError`` (never silently dropped,
    nor sent to reducer R-1 the way ``buckets[-1]`` would), and one that
    is not an integer raises ``TypeError``, as indexing a bucket list
    with it would.
    """
    ids = []
    append, index = ids.append, operator.index
    for k in keys:
        b = partitioner(k, num_reducers)
        if not 0 <= b < num_reducers:
            raise IndexError(
                f"partitioner returned bucket outside [0, {num_reducers})")
        append(index(b))
    return np.array(ids, dtype=np.int64)


def route_columnar(block: ColumnarBlock, num_reducers: int,
                   partitioner: "Callable[[Any, int], int] | None" = None,
                   ) -> "list[ColumnarBlock]":
    """Split one batch into per-reducer sub-batches (vectorised).

    The stable sort keeps each bucket's records in emission order — the
    object path's append order.  A single-reducer job routes without
    sorting at all (everything lands in bucket 0, already in order).
    """
    if num_reducers < 1:
        raise ValueError("num_reducers must be >= 1")
    if num_reducers == 1:
        return [block]
    buckets = _bucket_ids(block.keys, block.dictionary, num_reducers,
                          partitioner)
    order = stable_key_order(buckets)
    counts = np.bincount(buckets, minlength=num_reducers)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    sk = block.keys[order]
    sv = block.values[order]
    return [
        ColumnarBlock(sk[bounds[r]: bounds[r + 1]],
                      sv[bounds[r]: bounds[r + 1]], block.dictionary)
        for r in range(num_reducers)
    ]


def route_combine_columnar(
    block: ColumnarBlock, num_reducers: int, agg: str,
    partitioner: "Callable[[Any, int], int] | None" = None,
    keep: "Callable | None" = None,
) -> "list[ColumnarBlock]":
    """Fused map tail: map-side combine, then route the combined rows.

    A key maps to exactly one bucket, so grouping the records by *key
    alone* is enough: the one record-length sort is the combine's
    (:func:`stable_key_order`), and everything after it — the
    partitioner, bucket clustering, emission ordering — runs over the
    combined *uniques* only, typically a fraction of the records.  That
    is also exactly where the object path calls the partitioner (after
    the combiner, once per distinct key in first-emission order), so a
    hash, dictionary or custom partitioner sees the same calls on both
    paths and each bucket's rows come out byte-identical to the object
    path's combine-then-route, floats included (one shared
    :func:`segment_aggregate`).

    It is :meth:`RouteCombinePlan.build` over the keys, then
    :meth:`RouteCombinePlan.apply` over the values.  ``keep(keys, tag,
    build)`` — a pool worker's plan lookup for this task's slot —
    may hand back the plan of equal keys instead of building one; it
    is consulted for integer keys under the default hash routing only
    (a custom partitioner is called every run, and dictionary ids are
    the run's own).
    """
    def build() -> RouteCombinePlan:
        return RouteCombinePlan.build(block.keys, num_reducers, partitioner,
                                      block.dictionary)

    if (keep is None or block.dictionary is not None
            or not _hash_routed(partitioner)):
        plan = build()
    else:
        plan = keep(block.keys, num_reducers, build)
    return plan.apply(block.values, agg, block.dictionary)


# ----------------------------------------------------------------------
# Segmented aggregation (shared by combiner, reduce, and the oracle)
# ----------------------------------------------------------------------

def segment_aggregate(values: np.ndarray, starts: np.ndarray,
                      ufunc: np.ufunc) -> np.ndarray:
    """Reduce contiguous key segments of ``values`` with ``ufunc``.

    ``starts`` are ascending segment start indices (each segment runs to
    the next start, the last to the end).  2-D values reduce per column
    on contiguous copies so the arithmetic — and therefore the exact
    floating-point result — is the plain 1-D ``ufunc.reduceat``, which
    the object-path aggregation wrappers reuse for bitwise parity.
    """
    if len(starts) == 0:
        return values[:0].copy()
    if values.ndim == 1:
        return ufunc.reduceat(values, starts)
    cols = [ufunc.reduceat(np.ascontiguousarray(values[:, j]), starts)
            for j in range(values.shape[1])]
    return np.stack(cols, axis=1)


def _group_layout(keys: np.ndarray, sort_keys: bool
                  ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Sort-based grouping: ``(order, unique_keys, bounds, out_order)``.

    ``order`` stably sorts the records by key (so values within a key
    stay in emission order); group ``g`` of the sorted layout is the run
    ``bounds[g]:bounds[g + 1]`` (``bounds`` closes with ``len(keys)``,
    so starts are ``bounds[:-1]`` and counts ``np.diff(bounds)``);
    ``out_order`` permutes groups into output order — ascending key
    when ``sort_keys``, else first-emission order (the object path's
    dict insertion order).
    """
    n = len(keys)
    order = stable_key_order(keys)
    sk = keys[order]
    new_run = np.empty(n + 1, dtype=bool)
    new_run[0] = new_run[n] = True
    np.not_equal(sk[1:], sk[:-1], out=new_run[1:n])
    bounds = np.flatnonzero(new_run)
    starts = bounds[:-1]
    if sort_keys:
        out_order = _arange(len(starts))
    else:
        # A stable sort puts each key's first emission at its run start.
        out_order = stable_key_order(order[starts])
    return order, sk[starts], bounds, out_order


# ----------------------------------------------------------------------
# Plans: the key-only half of the map tail and of reduce-side grouping
# ----------------------------------------------------------------------

def _narrow(index: np.ndarray, n: int) -> np.ndarray:
    """``index`` (positions below ``n``) as int32 when ``n`` allows.

    A plan may outlive its task in a pool worker; half-width indices
    halve what it holds and gather the same elements.
    """
    return index.astype(np.int32) if n <= np.iinfo(np.int32).max else index


@dataclass(frozen=True, eq=False)
class RouteCombinePlan:
    """Everything the fused map tail derives from the keys alone.

    Built once per key array by :meth:`build`; :meth:`apply` then
    combines and routes any value array of the same length with two
    gathers around one :func:`segment_aggregate`, so a caller holding
    the plan of unchanged keys skips every sort.
    """

    #: Stable sort of the records by key.
    order: np.ndarray
    #: Start of each distinct key's run in the sorted layout.
    starts: np.ndarray
    #: Output row -> combined group: first emission, then by bucket.
    perm: np.ndarray
    #: Bucket ``r`` is output rows ``bounds[r]:bounds[r + 1]``.
    bounds: "tuple[int, ...]"
    #: The output keys (``perm`` applied to the distinct keys).
    keys: np.ndarray

    @classmethod
    def build(cls, keys: np.ndarray, num_reducers: int,
              partitioner: "Callable[[Any, int], int] | None" = None,
              dictionary: "StringDictionary | None" = None,
              ) -> "RouteCombinePlan":
        """Plan the combine-then-route of ``keys`` over ``num_reducers``.

        The partitioner runs here, once per distinct key in
        first-emission order (a single-reducer job calls it never).
        """
        if num_reducers < 1:
            raise ValueError("num_reducers must be >= 1")
        order, uk, bounds, out_order = _group_layout(keys, sort_keys=False)
        out_keys = uk[out_order]
        n = len(keys)
        perm, edges = out_order, (0, len(out_keys))
        if num_reducers > 1:
            buckets = _bucket_ids(out_keys, dictionary, num_reducers,
                                  partitioner)
            by_bucket = stable_key_order(buckets)
            perm, out_keys = out_order[by_bucket], out_keys[by_bucket]
            counts = np.bincount(buckets, minlength=num_reducers)
            edges = (0, *np.cumsum(counts).tolist())
        return cls(_narrow(order, n), _narrow(bounds[:-1], n),
                   _narrow(perm, n), edges, out_keys)

    def apply(self, values: np.ndarray, agg: str,
              dictionary: "StringDictionary | None" = None,
              ) -> "list[ColumnarBlock]":
        """Combine ``values`` (one row per planned key) and route them."""
        ufunc = resolve_agg(agg)
        rows = segment_aggregate(values[self.order], self.starts, ufunc)
        rows = rows[self.perm]
        b = self.bounds
        return [ColumnarBlock(self.keys[b[r]:b[r + 1]], rows[b[r]:b[r + 1]],
                              dictionary)
                for r in range(len(b) - 1)]


@dataclass(frozen=True, eq=False)
class GroupPlan:
    """Everything reduce-side grouping derives from the keys alone.

    :meth:`apply` gathers a value array of the same length into the
    grouped layout; :meth:`ColumnarGroups.aggregate` does the rest.
    """

    #: Stable sort of the records by key.
    order: np.ndarray
    #: Distinct keys, in sorted-key layout order.
    keys: np.ndarray
    #: Group ``g`` is sorted records ``bounds[g]:bounds[g + 1]``.
    bounds: np.ndarray
    #: Output permutation over groups.
    out_order: np.ndarray

    @classmethod
    def build(cls, keys: np.ndarray, sort_keys: bool = True,
              dictionary: "StringDictionary | None" = None) -> "GroupPlan":
        """Plan the grouping of ``keys``: sorted output groups when
        ``sort_keys`` (in decoded word order for dictionary ids), else
        first-emission order."""
        order, uk, bounds, out_order = _group_layout(
            keys, sort_keys and dictionary is None)
        if sort_keys and dictionary is not None and len(uk):
            out_order = dictionary.sort_order(uk)
        n = len(keys)
        return cls(_narrow(order, n), uk, _narrow(bounds, n), out_order)

    def apply(self, values: np.ndarray,
              dictionary: "StringDictionary | None" = None) -> "ColumnarGroups":
        """Group ``values`` (one row per planned key)."""
        return ColumnarGroups(keys=self.keys, values=values[self.order],
                              starts=self.bounds[:-1],
                              counts=np.diff(self.bounds),
                              order=self.out_order, dictionary=dictionary)


# ----------------------------------------------------------------------
# Reduce-side grouping
# ----------------------------------------------------------------------

@dataclass
class ColumnarGroups:
    """One reducer's key-grouped columnar input.

    ``values`` holds every record in sorted-key layout (stable within a
    key, i.e. (map index, emission order)); group ``i`` of the *output*
    order covers ``values[starts[order[i]] : + counts[order[i]]]``.
    """

    #: Distinct keys, in sorted-key layout order.
    keys: np.ndarray
    #: All value rows, key-grouped (sorted-key layout).
    values: np.ndarray
    #: Start index of each group in ``values`` (sorted-key layout).
    starts: np.ndarray
    #: Record count of each group.
    counts: np.ndarray
    #: Output permutation over groups (identity when keys are sorted).
    order: np.ndarray
    #: Reverse table for dictionary-encoded string keys (else None).
    dictionary: "StringDictionary | None" = field(default=None)

    @property
    def num_groups(self) -> int:
        return len(self.keys)

    @property
    def num_records(self) -> int:
        return int(self.values.shape[0])

    def aggregate(self, agg: str) -> "tuple[np.ndarray, np.ndarray]":
        """Reduce every group with a named aggregation (vectorised).

        Returns ``(keys, rows)`` in output group order (keys are
        dictionary ids when :attr:`dictionary` is set).
        """
        ufunc = resolve_agg(agg)
        rows = segment_aggregate(self.values, self.starts, ufunc)
        return self.keys[self.order], rows[self.order]

    def to_pairs(self) -> "list[tuple[Any, list]]":
        """Materialise the object-path ``groups()[r]`` structure.

        Byte-identical to feeding the same logical pairs through the
        object :class:`~repro.engine.shuffle.ShuffleBuffer`: same key
        order, same value order, same Python types (decoded words for
        dictionary-encoded keys).
        """
        if self.dictionary is not None:
            keys: list = self.dictionary.decode(self.keys)
        else:
            keys = self.keys.tolist()
        starts = self.starts.tolist()
        counts = self.counts.tolist()
        if self.values.ndim == 1:
            vals = self.values.tolist()
            return [
                (keys[g], vals[starts[g]: starts[g] + counts[g]])
                for g in self.order.tolist()
            ]
        vals = [tuple(row) for row in self.values.tolist()]
        return [
            (keys[g], vals[starts[g]: starts[g] + counts[g]])
            for g in self.order.tolist()
        ]


def group_columnar(blocks: "Sequence[ColumnarBlock]", *,
                   sort_keys: bool = True,
                   keep: "Callable | None" = None) -> ColumnarGroups:
    """Group one reducer's blocks (in map-task order) by key.

    Dictionary-encoded keys group by id (bijective with the words) but
    honour ``sort_keys`` in *decoded word* order — the object path's
    ``sorted(table)`` over string keys.  It is :meth:`GroupPlan.build`
    then :meth:`GroupPlan.apply`; ``keep`` is the plan lookup of
    :func:`route_combine_columnar`, consulted for integer keys only.
    """
    merged = ColumnarBlock.concat(blocks)
    dic = merged.dictionary

    def build() -> GroupPlan:
        return GroupPlan.build(merged.keys, sort_keys, dic)

    plan = (build() if keep is None or dic is not None
            else keep(merged.keys, sort_keys, build))
    return plan.apply(merged.values, dic)


# ----------------------------------------------------------------------
# Declarative reduce + object-path oracles
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnarReduce:
    """A declarative reduce the engine can run vectorised.

    ``agg`` names the per-group aggregation; ``finish`` is an optional
    vectorised epilogue ``(keys, rows) -> rows`` applied after it (e.g.
    SSSP folding its cross-edge floor into the distance column).  Must
    be a picklable top-level callable for the process executors.
    """

    agg: str
    finish: "Callable[[np.ndarray, np.ndarray], np.ndarray] | None" = None

    def __post_init__(self) -> None:
        resolve_agg(self.agg)


def as_columnar_reduce(reduce_fn: Any) -> "ColumnarReduce | None":
    """Coerce a job's reduce spec to :class:`ColumnarReduce` if declarative.

    Strings name a bare aggregation; callables (classic reduce
    functions) return ``None`` — they need materialised groups.
    """
    if isinstance(reduce_fn, ColumnarReduce):
        return reduce_fn
    if isinstance(reduce_fn, str):
        return ColumnarReduce(reduce_fn)
    return None


def _materialise_row(row: np.ndarray) -> Any:
    return float(row) if row.ndim == 0 else tuple(float(x) for x in row)


class _ObjectAgg:
    """Object-path spelling of a named aggregation (combiner flavour).

    Funnels through :func:`segment_aggregate` so combined values are
    bitwise identical to the columnar path's.  Picklable (plain class +
    string and ufunc state) for the process executors.

    This is the *oracle* spelling of the combiner, not a fast path: it
    pays NumPy calls per group to reproduce ``reduceat``'s arithmetic
    (``v0 + (v1 + v2 ...)`` for a few addends, pairwise from 8 — not a
    left fold a Python loop could match), which costs more than
    shuffling the duplicates it removes, so on the serial object path
    ``object+combine`` stays slower than ``object``.  Only a singleton
    group skips the reduction: a one-element segment is its element.
    """

    #: The one segment every per-group reduction has: all of it.
    _STARTS = np.array([0])

    def __init__(self, agg: str) -> None:
        self.agg = agg
        self._ufunc = resolve_agg(agg)

    def _reduce_values(self, values: list) -> np.ndarray:
        if len(values) == 1:
            return np.asarray(values[0], dtype=np.float64)
        arr = np.asarray(values, dtype=np.float64)
        return segment_aggregate(arr, self._STARTS, self._ufunc)[0]

    def __call__(self, key: Any, values: list, ctx: Any) -> None:
        ctx.emit(key, _materialise_row(self._reduce_values(values)))


class _ObjectReduce(_ObjectAgg):
    """Object-path spelling of a :class:`ColumnarReduce` (finish included)."""

    def __init__(self, cr: ColumnarReduce) -> None:
        super().__init__(cr.agg)
        self.finish = cr.finish

    def __call__(self, key: Any, values: list, ctx: Any) -> None:
        row = self._reduce_values(values)
        if self.finish is not None:
            keys = np.asarray([key], dtype=np.int64)
            row = np.asarray(self.finish(keys, row[None]))[0]
        ctx.emit(key, _materialise_row(np.asarray(row)))


def object_combiner(combine_fn: Any) -> Any:
    """Resolve a combine spec for the object path (strings -> oracle fn)."""
    if isinstance(combine_fn, str):
        return _ObjectAgg(combine_fn)
    return combine_fn


def object_reducer(reduce_fn: Any) -> Any:
    """Resolve a reduce spec for the object path (declarative -> oracle fn)."""
    cr = as_columnar_reduce(reduce_fn)
    return _ObjectReduce(cr) if cr is not None else reduce_fn
