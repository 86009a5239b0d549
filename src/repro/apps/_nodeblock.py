"""A node-partitioned app, written once: the simulator's spec
(:class:`NodeBlockSpec`) and the engine's view of it
(:class:`NodeRowState`)."""

from __future__ import annotations

import weakref
from typing import Any, Callable

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse._sparsetools import csr_matvec

from repro.core import BlockSpec, LocalSolveReport, run_local_block
from repro.core.localmr import agg_identity
from repro.graph import EdgeBlock, join_blocks, split_edges
from repro.util import max_abs_diff
from repro.util.radix import stable_key_order

#: Bytes of one shuffled (key, value) record in our cost accounting.
RECORD_BYTES = 16


def sum_fold_matrices(blocks: "list[EdgeBlock]", *,
                      into_target: bool) -> list:
    """One ``csr_array`` per part whose mat-vec is a sum app's local
    fold: ``M @ x`` equals, to the bit, ``np.add.at(acc,
    rows, int_w * x[gathered])`` from ``acc = 0`` over the part's
    internal edges, with ``rows, gathered = int_dst, int_src`` when
    ``into_target`` (PageRank pushes along an edge) and ``int_src,
    int_dst`` otherwise (Jacobi's row owns the entry).

    It is bitwise because SciPy's CSR mat-vec adds a row's terms one at
    a time from 0.0 in stored order, as ``np.add.at`` does, and a
    *stable* sort by fold row keeps every row's terms in their stored
    order.  The arrays go in as ``(data, indices, indptr)`` — never as
    COO triples, which would merge parallel entries into one term — with
    int32 indices.  One stable sort over every part's internal edges,
    keyed by the row's position in the parts laid end to end, orders
    all the parts at once.
    """
    sizes = np.array([len(b.nodes) for b in blocks], dtype=np.int64)
    first = np.cumsum(sizes) - sizes
    rows = [b.int_dst if into_target else b.int_src for b in blocks]
    cols = [b.int_src if into_target else b.int_dst for b in blocks]
    key = np.concatenate(rows) + np.repeat(first, [len(r) for r in rows])
    order = stable_key_order(key)
    indices = np.concatenate(cols)[order].astype(np.int32)
    data = np.concatenate([b.int_w for b in blocks])[order]
    indptr = np.zeros(int(sizes.sum()) + 1, dtype=np.int32)
    np.cumsum(np.bincount(key, minlength=len(indptr) - 1), out=indptr[1:])
    mats = []
    for r, n in zip(first.tolist(), sizes.tolist()):
        ptr = indptr[r: r + n + 1]
        a, b = int(ptr[0]), int(ptr[-1])
        mats.append(csr_array((data[a:b], indices[a:b], ptr - a), shape=(n, n)))
    return mats


def csr_fold(*mats: csr_array) -> "Callable[[np.ndarray], np.ndarray]":
    """``x -> M @ x`` as a sum app's step calls it, once per local
    iteration, for ``M`` the block-diagonal matrix of ``mats`` laid end
    to end (one part's fold, or every part's): a fresh ``acc =
    np.zeros(n)`` and, per matrix, SciPy's CSR kernel,
    ``_sparsetools.csr_matvec``, called directly on its rows of ``x``
    and ``acc``.  That is the very call ``csr_array.__matmul__`` ends in
    for a float64 vector, so each part's rows are the same to the bit;
    what it skips is the operator's dispatch, which costs more than the
    arithmetic on a part of a few hundred rows.  The kernel reads ``x``
    where ``indices`` point and checks nothing, so the fold checks the
    length ``M @ x`` would (each matrix was validated when it was built)
    and never writes ``x``."""
    sizes = [m.shape[0] for m in mats]
    ends = np.cumsum(sizes).tolist()
    kernels = [(a, b, m.indptr, m.indices, m.data)
               for a, b, m in zip([0, *ends[:-1]], ends, mats)]
    n = ends[-1]

    def fold(x: np.ndarray) -> np.ndarray:
        if len(x) != n:
            raise ValueError(f"fold of a {n}-row part got {len(x)} rows")
        acc = np.zeros(n)
        for a, b, indptr, indices, data in kernels:
            csr_matvec(b - a, b - a, indptr, indices, data, x[a:b], acc[a:b])
        return acc

    return fold


#: The fields of an :class:`EdgeBlock` that hold row and node ids: they
#: depend only on the edges' endpoints and the partition, never on the
#: per-edge values an app carries along (``int_w``, ``cut_w``, ``in_w``).
INDEX_FIELDS = ("int_src", "int_dst", "cut_src", "cut_dst", "in_src", "in_dst")


class _Topology:
    """The index fields of one split, per part: shared by every split
    whose index fields equal them bit for bit, whatever app or edge
    source built it (PageRank and SSSP over one partition of one graph,
    or of its weighted twin)."""

    __slots__ = ("ids", "__weakref__")

    def __init__(self, ids: list) -> None:
        self.ids = ids


#: Every live topology; one goes when the last split holding it goes.
_TOPOLOGIES: "weakref.WeakSet[_Topology]" = weakref.WeakSet()


def _same_ids(a: list, b: list) -> bool:
    """Whether two splits' index fields are equal, part for part, in
    dtype and in every element."""
    return len(a) == len(b) and all(
        x.dtype == y.dtype and np.array_equal(x, y)
        for p, q in zip(a, b) for x, y in zip(p, q))


def _topology(blocks: list) -> _Topology:
    """The live topology whose index fields equal ``blocks``', or a new
    one made of them (and marked read-only)."""
    ids = [tuple(getattr(b, f) for f in INDEX_FIELDS) for b in blocks]
    for topology in _TOPOLOGIES:
        if _same_ids(topology.ids, ids):
            return topology
    _read_only(a for part in ids for a in part)
    topology = _Topology(ids)
    _TOPOLOGIES.add(topology)
    return topology


class _Split:
    """One edge split and, for a sum app, its fold matrices, shared by
    every spec over the same partition, app and edge source.  ``over``
    keeps that partition and source alive while the split is, so the
    ids in its :data:`_SPLITS` key cannot be reused by other objects;
    ``topology`` keeps the split's index fields in :data:`_TOPOLOGIES`."""

    __slots__ = ("over", "topology", "blocks", "fold", "__weakref__")

    def __init__(self, over: tuple, topology: _Topology, blocks: list,
                 fold: "list | None") -> None:
        self.over, self.topology = over, topology
        self.blocks, self.fold = blocks, fold


#: The live splits by ``(app, id(partition), id(source))``; an entry
#: goes when the last spec holding its split goes.
_SPLITS: "weakref.WeakValueDictionary[tuple, _Split]" = weakref.WeakValueDictionary()
#: The split each live spec holds: what keeps an entry of ``_SPLITS``
#: alive.  Beside the spec, not on it, so a spec pickles as it did
#: before splits were shared and no split travels to a pool worker.
_HELD: "weakref.WeakKeyDictionary[NodeBlockSpec, _Split]" = weakref.WeakKeyDictionary()


def _read_only(arrays) -> None:
    """Mark each array, and every array it is a view of, read-only."""
    for a in arrays:
        while isinstance(a, np.ndarray):
            a.flags.writeable = False
            a = a.base


def shared_split(spec: "NodeBlockSpec", app: str, source: object,
                 edges: "Callable[[], tuple]", *,
                 into_target: "bool | None" = None) -> "tuple[list, list | None]":
    """``(_blocks, _fold)`` for ``spec``: the :func:`split_edges` of
    ``edges()`` over ``spec.partition`` and, when ``into_target`` is set
    (a sum app), its :func:`sum_fold_matrices`, else ``None``.

    The one place a node-block spec's split is built.  Specs over the
    same partition with the same ``app`` and edge ``source`` (the graph,
    or Jacobi's system) share one: ``edges`` is called only when no live
    spec holds it.  Splits of any app share their index fields
    (:data:`INDEX_FIELDS`) when these are equal: a new split keeps only
    its per-edge values and takes the ids of a live split that has the
    same ones.  Both are held weakly, so they go with the last spec that
    holds them.  Their arrays are read-only, the partition's own
    ``nodes`` excepted; ``docs/local_loop.md``, "Who owns the edge
    split"."""
    partition = spec.partition
    key = (app, id(partition), id(source))
    split = _SPLITS.get(key)
    if split is None:
        blocks = split_edges(*edges(), partition)
        topology = _topology(blocks)
        blocks = [b._replace(**dict(zip(INDEX_FIELDS, ids)))
                  for b, ids in zip(blocks, topology.ids)]
        fold = (None if into_target is None else
                sum_fold_matrices(blocks, into_target=into_target))
        _read_only(a for b in blocks for a in (b.int_w, b.cut_w, b.in_w))
        _read_only(a for m in fold or () for a in (m.data, m.indices, m.indptr))
        split = _SPLITS[key] = _Split((partition, source), topology, blocks, fold)
    _HELD[spec] = split
    return split.blocks, split.fold


class NodeBlockSpec(BlockSpec):
    """PageRank, SSSP, components and Jacobi: part ``p`` owns the node
    slice ``_blocks[p].nodes`` of a flat state vector, and its local
    solve is ``run_local_block`` over the spec's one hook,
    :meth:`block_step`, on the part's block (``docs/local_loop.md``); a
    general round is the same hook once over every part
    (:meth:`general_round`).  This class is everything around it: the
    columns cut from the state, the simulator's price and the global
    combine.  ``local_agg`` decides what differs: a ``"sum"`` app
    rewrites its whole slice each round, a ``"min"`` app lowers entries.

    A subclass sets ``partition``, ``local_agg``, ``_blocks`` (one
    ``EdgeBlock`` per part) and, for a ``"sum"`` app, a ``tol`` and
    ``_fold``, the last two from :func:`shared_split`, and writes
    ``init_state``, :meth:`frozen_columns` and :meth:`block_step`.

    A part's solve reads the state at its own rows and at
    :meth:`read_rows`, nowhere else: :meth:`frozen_columns` is handed
    the state at the block's ``remote`` rows only.  The async backend
    relies on it (:meth:`refresh_view`).
    """

    #: Each partition owns a disjoint node slice of the state vector.
    partition_scoped_state = True
    #: The edge field holding the remote rows the frozen columns fold:
    #: each incoming cut edge's source for an app that pushes along its
    #: edges; Jacobi, whose row owns the entry, reads its cut targets.
    remote = "in_src"
    #: A sum app's fold matrices, one per part (:func:`sum_fold_matrices`).
    _fold: "list | None" = None
    #: The parts laid end to end, built at the first general round.
    _joined: "tuple | None" = None
    #: Per part, where its read rows lie in the other parts' slices.
    _routes: "list | None" = None

    def num_partitions(self) -> int:
        return self.partition.k

    def frozen_columns(self, b: EdgeBlock, remote: np.ndarray) -> tuple:
        """The columns the local loop holds constant beside the part's
        own slice ``state[b.nodes]``: what the rest of the state offers
        the part this round (row ``i`` for node ``b.nodes[i]``), from
        ``remote``, the state at the block's remote rows (entry ``j``
        at ``getattr(b, self.remote)[j]``; a fresh array the method may
        overwrite)."""
        raise NotImplementedError

    def _columns(self, b: EdgeBlock, state: np.ndarray) -> tuple:
        """The loop's columns for block ``b``: its slice of ``state``,
        then the frozen columns."""
        return (state[b.nodes],
                *self.frozen_columns(b, state[getattr(b, self.remote)]))

    def read_rows(self, part_id: int) -> np.ndarray:
        """The state rows outside part ``part_id``'s own slice that its
        local solve reads: its block's remote rows, in edge order, with
        repeats."""
        return getattr(self._blocks[part_id], self.remote)

    def local_step(self, part_id: int, cols: tuple
                   ) -> "Callable[[np.ndarray], tuple[np.ndarray, int, bool]]":
        """One local iteration over every row of part ``part_id``:
        :meth:`block_step` over the part's block and, for a sum app, its
        fold matrix."""
        mats = () if self._fold is None else (self._fold[part_id],)
        return self.block_step(self._blocks[part_id], mats, cols)

    def block_step(self, b: EdgeBlock, mats: tuple, cols: tuple
                   ) -> "Callable[[np.ndarray], tuple[np.ndarray, int, bool]]":
        """One local iteration over every row of block ``b``, built once
        per solve from its columns ``cols`` (``cols[0]`` the value
        column the solve starts from, the rest frozen for the solve);
        ``mats`` are a sum app's fold matrices of ``b``'s parts, laid end
        to end as ``b`` lays them, for :func:`csr_fold` (empty for a min
        app).  ``b`` is one part (:meth:`local_step`) or every part laid
        end to end (:meth:`general_round`): the step reads the block it
        is given, never ``_blocks``.

        ``step(x) -> (x_new, records, converged)`` is ``lmap`` over the
        whole partition, the local shuffle, ``lreduce`` and the local
        termination test: ``x_new[i]`` is row ``i``'s contribution
        records folded by ``local_agg`` one by one in per-record emission
        order (row-major by source row), from the aggregator's identity
        where none arrived, then ``lreduce``'s epilogue — bitwise the
        per-record loop; ``records`` is how many contribution records
        ``lmap`` emitted (the carried ``rec`` is implied; SSSP's count
        changes as its frontier grows); ``converged`` compares ``x_new``
        with ``x``.  A sum is :func:`csr_fold`, a min a gather plus
        :func:`repro.core.localmr.scatter_fold`.

        What is constant for the solve — the block's edge arrays, the
        frozen columns' share of the update, a scratch buffer — is
        hoisted into the step.  The step never writes ``x``, the
        caller's column (``local_solve`` compares the result with it),
        and is never stored on the spec, which is pickled to pool
        workers."""
        raise NotImplementedError

    def shuffle_records(self, b: EdgeBlock, max_local_iters: int) -> int:
        """Records the part's gmap ships: one per node and per outgoing
        cut edge, plus, in general mode, one per internal edge — the full
        intermediate volume the paper's general baseline pays."""
        records = len(b.cut_src) + len(b.nodes)
        if max_local_iters == 1:
            records += len(b.int_src)
        return records

    def local_solve(self, part_id: int, state: np.ndarray, *,
                    max_local_iters: int) -> LocalSolveReport:
        if max_local_iters < 1:
            raise ValueError("max_local_iters must be >= 1")
        b = self._blocks[part_id]
        nodes = b.nodes
        if len(nodes) == 0:
            return LocalSolveReport(partition=part_id, updates=(nodes, nodes),
                                    local_iters=0, per_iter_ops=[],
                                    shuffle_bytes=0, update_nbytes=0)
        cols = self._columns(b, state)
        x0 = cols[0]
        run = run_local_block(self, part_id, cols,
                              max_local_iters=max_local_iters)
        x = run.table[0]
        # The simulator prices a sweep at one op per internal edge and
        # per node, not at the per-record loop's ``3n + records``.
        per_iter_ops = [float(len(b.int_src) + len(nodes))] * run.local_iters
        if self.local_agg == "sum":
            # Dense update: the whole slice is rewritten through the
            # state store, so the per-partition distribution is the
            # partition-size profile and sums to ``state_nbytes``.
            update_nbytes = int(x.nbytes)
        else:
            # Frontier-driven: only entries lowered this round are
            # rewritten, so the parts a wave is sweeping dominate the
            # store's key range — the naturally skewed distribution.
            update_nbytes = int(np.count_nonzero(x < x0)) * 8
        return LocalSolveReport(
            partition=part_id, updates=(nodes, x),
            local_iters=run.local_iters, per_iter_ops=per_iter_ops,
            shuffle_bytes=self.shuffle_records(b, max_local_iters) * RECORD_BYTES,
            update_nbytes=update_nbytes)

    def general_round(self, state: np.ndarray) -> "list[LocalSolveReport]":
        """One local iteration of every part as ONE step over the parts
        laid end to end (:func:`repro.graph.join_blocks`, built at the
        spec's first general round): the frozen columns are cut once, the
        step runs once, and each part's report is sliced out of the
        result, equal field for field to ``local_solve(p, state,
        max_local_iters=1)`` (``docs/local_loop.md``, "A general round
        is one sweep")."""
        join, bounds, parts = self._join()
        cols = self._columns(join, state)
        x0 = cols[0]
        x, _, _ = self.block_step(join, () if self._fold is None else self._fold,
                                  cols)(x0)
        if self.local_agg == "min":
            # entries the round lowered, before each part's first row
            lowered = np.concatenate(([0], np.cumsum(x < x0)))[bounds].tolist()
        reports = []
        for p, (nodes, ops, shuffle_bytes) in enumerate(parts):
            a, b = bounds[p], bounds[p + 1]
            if a == b:
                reports.append(LocalSolveReport(
                    partition=p, updates=(nodes, nodes), local_iters=0,
                    per_iter_ops=[], shuffle_bytes=0, update_nbytes=0))
                continue
            reports.append(LocalSolveReport(
                partition=p, updates=(nodes, x[a:b]), local_iters=1,
                per_iter_ops=[ops], shuffle_bytes=shuffle_bytes,
                update_nbytes=(x.itemsize * (b - a) if self.local_agg == "sum"
                               else (lowered[p + 1] - lowered[p]) * 8)))
        return reports

    def _join(self) -> "tuple[EdgeBlock, list, list]":
        """The parts laid end to end, each part's first row in it (and
        the end), and what each part's general-round report holds
        constant: ``(nodes, ops, shuffle_bytes)``.  Built once.

        The join keeps only the internal row ids its step reads: a sum
        app folds through the parts' own matrices and keeps none; a min
        app gathers and scatters through them, so it keeps them at
        ``intp`` width, which NumPy would otherwise cast to on every
        call."""
        if self._joined is None:
            sizes = [len(b.nodes) for b in self._blocks]
            join = join_blocks(self._blocks)
            if self._fold is not None:
                none = np.empty(0, dtype=np.int32)
                join = join._replace(int_src=none, int_dst=none)
            else:
                join = join._replace(int_src=join.int_src.astype(np.intp),
                                     int_dst=join.int_dst.astype(np.intp))
            self._joined = (
                join,
                np.cumsum([0, *sizes]).tolist(),
                [(b.nodes, float(len(b.int_src) + n),
                  self.shuffle_records(b, 1) * RECORD_BYTES)
                 for b, n in zip(self._blocks, sizes)])
        return self._joined

    def global_converged(self, prev, curr):
        """The residual is the largest ``|curr - prev|``, an entry equal
        on both sides (``inf == inf`` too) counting 0.  A ``"sum"`` app
        has converged below ``tol``; a ``"min"`` app only lowers
        entries, so it has converged when nothing moved."""
        residual = max_abs_diff(curr, prev)
        if self.local_agg == "sum":
            return residual < self.tol, residual
        return residual == 0.0, residual

    def combine_rows(self, into: np.ndarray, updates) -> None:
        """The combine rule, in place: for each ``(rows, x)`` of
        ``updates`` in order, a sum app overwrites ``into[rows]`` with
        ``x``, a min app lowers them to it."""
        if self.local_agg == "sum":
            for rows, x in updates:
                into[rows] = x
        else:
            for rows, x in updates:
                # Fancy indexing yields a copy, so assign the elementwise
                # min back rather than using an out= view.
                into[rows] = np.minimum(into[rows], x)

    def global_combine(self, state, reports):
        new_state = state.copy()
        self.combine_rows(new_state, [r.updates for r in reports])
        # greduce touches every shuffled record once.
        records = sum(r.shuffle_bytes // RECORD_BYTES for r in reports)
        return new_state, float(records), 0

    def refresh_view(self, view: np.ndarray, part_id: int,
                     reports: list) -> None:
        """Fold ``reports`` into part ``part_id``'s private view, in place
        and only where its solve reads: all of the slice of its own
        report, the part's :meth:`read_rows` in another's.  By
        :meth:`combine_rows`, in order, so those rows equal a full-view
        ``global_combine`` of the same reports."""
        route = self._route(part_id)
        self.combine_rows(view, [(hit[0], r.updates[1][hit[1]]) for r in reports
                                 if (hit := route.get(r.partition))])

    def _route(self, part_id: int) -> dict:
        """``{q: (rows, at)}``: where part ``part_id`` reads each part
        ``q``'s slice, as state rows and their positions in ``q``'s
        report — its own whole slice, and its read rows (distinct,
        ascending) in the other parts that hold any.  Built once, for
        every part at the first call."""
        if self._routes is None:
            row_of = np.empty(len(self.partition.assign), dtype=np.intp)
            for b in self._blocks:
                row_of[b.nodes] = np.arange(len(b.nodes))
            self._routes = []
            for p, b in enumerate(self._blocks):
                rows = np.unique(self.read_rows(p))
                owner = self.partition.assign[rows]
                route = {q: (rows[owner == q], row_of[rows[owner == q]])
                         for q in np.unique(owner).tolist()}
                route[p] = (b.nodes, slice(None))
                self._routes.append(route)
        return self._routes[part_id]


def owner_and_cut_pairs(nodes: np.ndarray, own_tag: str, own: np.ndarray,
                        cut_src: np.ndarray, cut_keys: np.ndarray,
                        cut_tag: str, cut: np.ndarray) -> list:
    """The pairs a per-record ``gmap_emit`` scan of a node table emits,
    built from arrays: for each row ``i`` in order, ``(nodes[i],
    (own_tag, own[i]))``, then ``(cut_keys[j], (cut_tag, cut[j]))`` for
    every cut record ``j`` out of row ``i``.  ``cut_src`` (each cut
    record's source row) must be ascending, as an ``EdgeBlock``'s is.
    Keys come out as Python ints, values as Python floats, and every
    tag is one of the two ``str`` objects passed in."""
    n, c = len(nodes), len(cut_src)
    # Row i lands after the i rows and the cut records out of rows < i;
    # cut record j after its source row's owner and the j records before.
    own_at = np.arange(n) + np.searchsorted(cut_src, np.arange(n))
    cut_at = cut_src + np.arange(1, c + 1)
    keys = np.empty(n + c, dtype=np.int64)
    values = np.empty(n + c, dtype=np.float64)
    is_cut = np.ones(n + c, dtype=np.intp)
    keys[own_at], keys[cut_at] = nodes, cut_keys
    values[own_at], values[cut_at] = own, cut
    is_cut[own_at] = 0
    tags = np.array([own_tag, cut_tag], dtype=object)[is_cut].tolist()
    return list(zip(keys.tolist(), zip(tags, values.tolist())))


class NodeRowState:
    """The engine's view of a :class:`NodeBlockSpec`: what turns an
    app's block spec plus its §IV functions into an
    :class:`~repro.core.AsyncMapReduceSpec` (``docs/local_loop.md``).

    The global state is one ``(N, 2)`` float64 array, row ``u`` =
    ``(value, ext)`` of node ``u``: the block state's value, then the
    frozen column the part's incoming cut messages fold into
    (``state[u][0]`` is ``u``'s value).  A round builds no per-node
    object from it: a gmap's input is its part's rows, the block loop's
    columns are their transpose — so the engine's gmap runs the block
    spec's own local step — and the global reduce's output is one
    scatter into a copy of the previous state.

    A KV spec lists this view first, then the app's block spec, then
    ``AsyncMapReduceSpec``, so :meth:`global_converged` hands the block
    spec's rule the value column.  It writes the §IV functions,
    :meth:`table_records` for the :class:`~repro.core.per_record`
    oracle, its two record tags and :meth:`cut_messages`.  The map-side
    combiner is ``local_agg``: a class attribute, set per subclass.
    """

    supports_columnar = True
    #: Tag of a row's own value record in the object shuffle.
    own_tag: str
    #: Tag of a cut message, the next round's ``ext`` input.
    cut_tag: str

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "columnar_combine" not in cls.__dict__:
            cls.columnar_combine = cls.local_agg

    def cut_messages(self, part_id: int, x: np.ndarray
                     ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """What the part's value column ``x`` sends over its outgoing
        cut edges: ``(src_rows, dst_keys, values)``, one message per
        edge in ``EdgeBlock`` order (ascending source row) — the
        boundary records ``gmap_emit`` adds after each row's own."""
        raise NotImplementedError

    def table_records(self, part_id: int, rows: np.ndarray) -> list:
        """The hashtable the per-record loop starts from: one ``(node,
        value)`` record per row of :meth:`partition_input`, the value
        the row's fields followed by the static adjacency ``lmap``
        walks."""
        raise NotImplementedError

    def initial_state(self) -> np.ndarray:
        """``init_state()`` beside what it offers each part over the
        incoming cut edges, so the first engine round starts where the
        block path's first ``local_solve`` does."""
        x = self.init_state()
        state = np.empty((len(x), 2), dtype=np.float64)
        state[:, 0] = x
        for b in self._blocks:
            (state[b.nodes, 1],) = self._columns(b, x)[1:]
        return state

    def partition_input(self, part_id: int, state: np.ndarray) -> np.ndarray:
        return state[self._blocks[part_id].nodes]

    def local_columns(self, part_id: int, xs: np.ndarray) -> tuple:
        """The block loop's columns from a gmap input: the transpose of
        the part's ``(n, 2)`` rows; ``ValueError`` when ``xs`` does not
        have the row count of the partition ``_blocks`` describes."""
        if len(xs) != len(self._blocks[part_id].nodes):
            raise ValueError("gmap input is not the partition the spec's "
                             "static arrays describe")
        return tuple(np.ascontiguousarray(xs.T))

    def gmap_emit_block(self, cols: tuple, part_id: int):
        """The columnar emission from the final columns: each row's
        ``(value, identity)``, then each cut message's ``(identity,
        value)``, so the reduce's per-key ``local_agg`` yields the next
        ``(value, ext)`` row."""
        b = self._blocks[part_id]
        x = cols[0]
        _, keys, values = self.cut_messages(part_id, x)
        n = len(x)
        rows = np.full((n + len(keys), 2),
                       agg_identity(self.local_agg, x.dtype), dtype=np.float64)
        rows[:n, 0] = x
        rows[n:, 1] = values
        return np.concatenate([b.nodes, keys]), rows

    def gmap_emit_pairs(self, cols: tuple, part_id: int) -> list:
        """``gmap_emit`` from the final columns: the same pairs in the
        same order, built without the hashtable (what the object
        shuffle ships)."""
        x = cols[0]
        src, keys, values = self.cut_messages(part_id, x)
        return owner_and_cut_pairs(self._blocks[part_id].nodes, self.own_tag,
                                   x, src, keys, self.cut_tag, values)

    def gmap_emit_columnar(self, table: dict, part_id: int):
        """:meth:`gmap_emit_block` fed from the per-record hashtable."""
        nodes = self._blocks[part_id].nodes.tolist()
        x = np.fromiter((table[u][0] for u in nodes),
                        dtype=np.float64, count=len(nodes))
        return self.gmap_emit_block((x,), part_id)

    def columnar_reduce(self) -> Any:
        return self.local_agg

    def state_from_output(self, output: list, prev_state: np.ndarray):
        state = prev_state.copy()
        if output:
            keys, rows = zip(*output)
            state[list(keys)] = rows
        return state

    def state_from_columnar(self, block: Any, prev_state: np.ndarray):
        state = prev_state.copy()
        state[block.keys] = block.values
        return state

    def global_converged(self, prev_state, curr_state):
        if prev_state.ndim == 2:  # the engine's rows; a block run's is flat
            prev_state, curr_state = prev_state[:, 0], curr_state[:, 0]
        return super().global_converged(prev_state, curr_state)

    @staticmethod
    def _per_row(src_rows: np.ndarray, items: list, n: int) -> list:
        """``items`` of edges listed row-major by source row, as ``n``
        lists: list ``i`` holds row ``i``'s items in order."""
        ends = np.cumsum(np.bincount(src_rows, minlength=n)).tolist()
        return [items[a:b] for a, b in zip([0, *ends[:-1]], ends)]
