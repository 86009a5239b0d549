"""Graph partitioning: the locality-enhancing step of the paper.

The paper partitions its input graphs *once, off-line* with Metis ("A good
partitioning algorithm that minimizes edge-cuts has the desired effect of
reducing global synchronizations", §V-B.3) and hands each partition to a
global map task.  Metis is not available here, so this module implements
the same recipe from scratch:

* :func:`multilevel_partition` — a Metis-style multilevel k-way
  partitioner: heavy-edge-matching coarsening, greedy region-growing
  initial bisection, greedy boundary (Kernighan–Lin / Fiduccia–Mattheyses
  flavoured) refinement at every level, and recursive bisection for k-way.
* :func:`bfs_partition` — cheap locality-aware baseline (grow contiguous
  chunks breadth-first), analogous to the crawler-induced locality the
  paper mentions.
* :func:`hash_partition` / :func:`random_partition` — locality-oblivious
  baselines used by the partitioner-quality ablation.

All partitioners return a :class:`Partition`, which also provides the
derived quantities the Eager formulations need: boundary nodes, cut
edges, per-part node arrays, and balance statistics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.graph.digraph import DiGraph, merged_csr
from repro.util import as_rng, check_positive

__all__ = [
    "Partition",
    "EdgeBlock",
    "split_edges",
    "join_blocks",
    "hash_partition",
    "random_partition",
    "chunk_partition",
    "bfs_partition",
    "multilevel_partition",
    "partition_graph",
    "PARTITIONERS",
]


@dataclass
class Partition:
    """A k-way node partition of a :class:`DiGraph` plus derived structure.

    Attributes
    ----------
    graph:
        The partitioned graph.
    assign:
        ``(n,)`` int array mapping node -> part id in ``[0, k)``.
    k:
        Number of parts.  Empty parts are permitted (they can arise when
        ``k`` approaches ``n``), matching the paper's sweep up to 6400
        partitions.
    """

    graph: DiGraph
    assign: np.ndarray
    k: int
    _parts: list[np.ndarray] | None = field(default=None, repr=False)
    _cut_mask: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.assign = np.asarray(self.assign, dtype=np.int64)
        if self.assign.shape != (self.graph.num_nodes,):
            raise ValueError(
                f"assign must have shape ({self.graph.num_nodes},), "
                f"got {self.assign.shape}"
            )
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.graph.num_nodes and (
            self.assign.min() < 0 or self.assign.max() >= self.k
        ):
            raise ValueError("assign contains part ids outside [0, k)")

    # -- structure ------------------------------------------------------
    def parts(self) -> list[np.ndarray]:
        """List of ``k`` sorted node arrays, one per part (cached)."""
        if self._parts is None:
            # A stable sort by part id leaves each part's run of node
            # ids ascending: the runs are the sorted node arrays.
            order, at = _grouped(self.assign, self.k)
            self._parts = [order[at[i]: at[i + 1]] for i in range(self.k)]
        return self._parts

    def part_sizes(self) -> np.ndarray:
        """``(k,)`` array of node counts per part."""
        return np.bincount(self.assign, minlength=self.k)

    def cut_edge_mask(self) -> np.ndarray:
        """Boolean mask (aligned with edge arrays) of inter-part edges."""
        if self._cut_mask is None:
            src, dst, _ = self.graph.edge_arrays()
            self._cut_mask = self.assign[src] != self.assign[dst]
        return self._cut_mask

    def edge_cut(self) -> int:
        """Number of directed edges crossing parts."""
        return int(self.cut_edge_mask().sum())

    def cut_fraction(self) -> float:
        """Fraction of edges crossing parts (0 when the graph has no edges)."""
        m = self.graph.num_edges
        return self.edge_cut() / m if m else 0.0

    def boundary_nodes(self) -> np.ndarray:
        """Sorted array of nodes incident to at least one cut edge.

        These are the paper's "boundary nodes (nodes that have edges
        leading to other partitions) [which] require a global reduction"
        (§II); everything else is an internal node whose rank can be
        resolved by local iterations alone.
        """
        src, dst, _ = self.graph.edge_arrays()
        mask = self.cut_edge_mask()
        return np.unique(np.concatenate([src[mask], dst[mask]]))

    def internal_nodes(self) -> np.ndarray:
        """Sorted array of nodes with no cut edge."""
        b = np.zeros(self.graph.num_nodes, dtype=bool)
        b[self.boundary_nodes()] = True
        return np.flatnonzero(~b)

    def balance(self) -> float:
        """Max part size divided by ideal size (1.0 = perfectly balanced).

        Ignores empty parts implied by ``k > n``; the ideal size is
        ``n / min(k, n)`` so the statistic stays meaningful across the
        paper's full partition sweep.
        """
        n = self.graph.num_nodes
        if n == 0:
            return 1.0
        ideal = n / min(self.k, n)
        return float(self.part_sizes().max() / ideal)

    def nonempty_parts(self) -> int:
        """Number of parts that actually contain nodes."""
        return int((self.part_sizes() > 0).sum())

    def validate(self) -> None:
        """Raise ``AssertionError`` if the partition is not a valid cover."""
        sizes = self.part_sizes()
        assert sizes.sum() == self.graph.num_nodes, "parts must cover all nodes"
        assert len(np.concatenate(self.parts())) == self.graph.num_nodes if self.k else True


class EdgeBlock(NamedTuple):
    """One part's edges as arrays keyed by **part-local row**: row ``i``
    is node ``nodes[i]`` (:meth:`Partition.parts` order).

    Three disjoint edge sets.  The *out-view* is what the part's own
    rows emit — internal edges and outgoing cut edges; the *in-view* is
    what lands on them from other parts — incoming cut edges.  Every
    set keeps the order of the edge arrays it was split from (for a
    graph: adjacency order, row-major by source — the order a
    per-record scan of the part emits in), so a scatter over a set adds
    each row's terms in the order a scan of the whole edge list would:
    that per-row order is what makes a floating-point sum bitwise.  A
    *stable* sort of a set by target row keeps it, and changes no bit
    of a row's sum (the sum apps' CSR fold relies on that); an unstable
    sort, or any regrouping of one row's terms, moves the last bits.
    The arrays are views of one table per view; treat them as read-only.
    The row and node ids depend only on the edges' endpoints and the
    partition; the ``*_w`` fields are the only ones ``w`` reaches.
    """

    nodes: np.ndarray      #: ``(n,)`` int64 node ids of the part
    int_src: np.ndarray    #: source row of each internal edge
    int_dst: np.ndarray    #: target row of each internal edge
    int_w: np.ndarray      #: its weight
    cut_src: np.ndarray    #: source row of each outgoing cut edge
    cut_dst: np.ndarray    #: its remote target (global node id)
    cut_w: np.ndarray      #: its weight
    in_src: np.ndarray     #: remote source (global node id) of each incoming cut edge
    in_dst: np.ndarray     #: its target row
    in_w: np.ndarray       #: its weight


def _grouped(keys: np.ndarray, groups: int) -> "tuple[np.ndarray, np.ndarray]":
    """Stable order of ``keys`` (ints in ``[0, groups)``) and the
    ``groups + 1`` offsets of each group's run in that order."""
    order = np.argsort(keys, kind="stable")
    at = np.zeros(groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=groups), out=at[1:])
    return order, at


def split_edges(src: np.ndarray, dst: np.ndarray, w: np.ndarray,
                partition: Partition) -> "list[EdgeBlock]":
    """Split the edge list ``(src, dst, w)`` over ``partition``'s nodes
    into one :class:`EdgeBlock` per part: two stable sorts — every edge
    by (internal before cut, source part) for the out-view, the cut
    edges by destination part for the in-view — and O(n + m) besides,
    whatever ``k`` is.  Each field of the parts is a run of consecutive
    slices of one table, in part order (:func:`join_blocks` relies on
    it).

    ``w`` is whatever per-edge value the caller wants carried along:
    graph weights, matrix entries, ``1/outdeg[src]``.
    """
    k = partition.k
    parts = partition.parts()
    sizes = partition.part_sizes()
    row_of = np.empty(len(partition.assign), dtype=np.int64)
    row_of[np.concatenate(parts)] = (
        np.arange(len(row_of)) - np.repeat(np.cumsum(sizes) - sizes, sizes))
    # Part ids in the narrowest dtype that holds a sort key: NumPy's
    # stable sort of an 8- or 16-bit key is a radix sort, O(m) — twice
    # the paper's largest sweep (6400 parts) still fits 16 bits — and
    # the per-edge temporaries shrink with it.
    part_of = partition.assign.astype(np.min_scalar_type(2 * k))
    src_part, dst_part = part_of[src], part_of[dst]
    cut = src_part != dst_part

    # Every part's internal edges, then every part's cut edges, so each
    # field of the parts lies end to end in its table (join_blocks).
    order, out_at = _grouped(cut * part_of.dtype.type(k) + src_part, 2 * k)
    # an internal edge's target is a row, a cut edge's stays a node id
    out_dst = np.where(cut, dst, row_of[dst])[order]
    out_src, out_w = row_of[src[order]], w[order]

    cut_edges = np.flatnonzero(cut)
    order, in_at = _grouped(dst_part[cut_edges], k)
    order = cut_edges[order]
    in_src, in_dst, in_w = src[order], row_of[dst[order]], w[order]

    blocks = []
    for p, nodes in enumerate(parts):
        a, b = out_at[p: p + 2]
        c, d = out_at[k + p: k + p + 2]
        i, j = in_at[p: p + 2]
        blocks.append(EdgeBlock(
            nodes,
            out_src[a:b], out_dst[a:b], out_w[a:b],
            out_src[c:d], out_dst[c:d], out_w[c:d],
            in_src[i:j], in_dst[i:j], in_w[i:j]))
    return blocks


def join_blocks(blocks: "list[EdgeBlock]") -> EdgeBlock:
    """The parts laid end to end as one :class:`EdgeBlock`.  Part
    ``p``'s row ``i`` is the join's row ``first[p] + i`` (``first[p]``
    the number of rows in the parts before it), and every edge set lists
    part 0's edges, then part 1's, and so on.  So each row's edges keep
    their order, and a fold over the join adds a row's terms exactly as
    the fold over its own part does.

    The join's row ids are new int32 arrays.  Its per-edge values and
    remote node ids are views of :func:`split_edges`' tables, which
    already hold them end to end, so they cost nothing; parts from
    anywhere else are copied."""
    sizes = [len(b.nodes) for b in blocks]
    first = np.cumsum([0, *sizes[:-1]]).tolist()

    def rows(field: str) -> np.ndarray:
        cols = [getattr(b, field) for b in blocks]
        joined = np.empty(sum(len(c) for c in cols), dtype=np.int32)
        at = 0
        for col, offset in zip(cols, first):
            np.add(col, offset, out=joined[at: at + len(col)], casting="unsafe")
            at += len(col)
        return joined

    def shared(field: str) -> np.ndarray:
        return _end_to_end([getattr(b, field) for b in blocks])

    return EdgeBlock(
        nodes=shared("nodes"),
        int_src=rows("int_src"), int_dst=rows("int_dst"), int_w=shared("int_w"),
        cut_src=rows("cut_src"), cut_dst=shared("cut_dst"), cut_w=shared("cut_w"),
        in_src=shared("in_src"), in_dst=rows("in_dst"), in_w=shared("in_w"))


def _end_to_end(cols: "list[np.ndarray]") -> np.ndarray:
    """``np.concatenate(cols)`` without the copy when ``cols`` already
    lie end to end in one 1-D table (consecutive slices of it, as the
    parts :func:`split_edges` makes are): that table's slice."""
    base, at = cols[0].base, cols[0].ctypes.data
    for col in cols:
        if (base is None or col.base is not base or base.ndim != 1
                or col.dtype != base.dtype or col.strides != base.strides
                or col.ctypes.data != at):
            return np.concatenate(cols)
        at += col.nbytes
    start = (cols[0].ctypes.data - base.ctypes.data) // base.itemsize
    return base[start: start + sum(len(c) for c in cols)]


# ----------------------------------------------------------------------
# Locality-oblivious baselines
# ----------------------------------------------------------------------

def hash_partition(graph: DiGraph, k: int) -> Partition:
    """Assign node ``u`` to part ``u mod k`` (Hadoop's default placement)."""
    check_positive("k", k)
    return Partition(graph, np.arange(graph.num_nodes) % k, k)


def random_partition(graph: DiGraph, k: int, *,
                     seed: "int | np.random.Generator | None" = None) -> Partition:
    """Uniform random balanced assignment (shuffled round-robin)."""
    check_positive("k", k)
    rng = as_rng(seed)
    assign = np.arange(graph.num_nodes) % k
    rng.shuffle(assign)
    return Partition(graph, assign, k)


def chunk_partition(graph: DiGraph, k: int) -> Partition:
    """Split node ids into ``k`` contiguous equal ranges.

    Node ids are insertion (crawl) order for the generated inputs, so
    contiguous ranges inherit the crawler-induced locality the paper
    describes — this is the "partitioning you get for free" baseline,
    cheaper but coarser than the multilevel min-cut partitioner.
    """
    check_positive("k", k)
    return Partition(graph, _chunks(graph.num_nodes, k), k)


def _chunks(n: int, k: int) -> np.ndarray:
    """Part id of each of ``n`` consecutive positions cut into ``k``
    nearly equal runs."""
    bounds = np.linspace(0, n, k + 1).astype(np.int64)
    return np.repeat(np.arange(k), np.diff(bounds))


# ----------------------------------------------------------------------
# BFS partitioner — cheap contiguity
# ----------------------------------------------------------------------

def bfs_partition(graph: DiGraph, k: int, *,
                  seed: "int | np.random.Generator | None" = None) -> Partition:
    """Grow ``k`` contiguous chunks breadth-first over the undirected graph.

    Nodes are visited in BFS order from successive unvisited seeds and
    sliced into ``k`` nearly equal consecutive chunks, so each part is a
    union of BFS-contiguous regions.  This mimics the crawl-order locality
    the paper notes real web graphs arrive with (§V-B.3).
    """
    check_positive("k", k)
    n = graph.num_nodes
    if n == 0:
        return Partition(graph, np.zeros(0, dtype=np.int64), k)
    ptr, nbr, _ = graph.undirected_csr()
    ptr, nbr = ptr.tolist(), nbr.tolist()
    rng = as_rng(seed)
    visited = [False] * n
    order: list[int] = []
    queue: deque[int] = deque()
    for s in rng.permutation(n).tolist():
        if visited[s]:
            continue
        visited[s] = True
        queue.append(s)
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in nbr[ptr[u]: ptr[u + 1]]:
                if not visited[v]:
                    visited[v] = True
                    queue.append(v)
    assert len(order) == n
    assign = np.empty(n, dtype=np.int64)
    # Slice the BFS order into k nearly equal consecutive chunks.
    assign[order] = _chunks(n, k)
    return Partition(graph, assign, k)


# ----------------------------------------------------------------------
# Multilevel partitioner (Metis substitute)
# ----------------------------------------------------------------------

@dataclass
class _UGraph:
    """Undirected weighted working graph for the multilevel pipeline."""

    ptr: np.ndarray   # (n+1,) CSR offsets
    nbr: np.ndarray   # (m,) neighbour ids
    w: np.ndarray     # (m,) edge weights
    vw: np.ndarray    # (n,) node weights

    @property
    def n(self) -> int:
        return len(self.vw)

    @cached_property
    def src(self) -> np.ndarray:
        """``(m,)`` source node of each CSR entry."""
        return np.repeat(np.arange(self.n), np.diff(self.ptr))


def _heavy_edge_matching(g: _UGraph, rng: np.random.Generator) -> np.ndarray:
    """Return match[] pairing each node with a neighbour (or itself).

    Visits nodes in random order, matching each unmatched node to its
    heaviest unmatched neighbour — the classic HEM rule that preserves
    heavy edges inside coarse nodes so they never appear in the cut.
    Among equally heavy neighbours the first in CSR order wins.

    The visit order is sequential by definition; the neighbour scan is
    not.  Each node's neighbours are laid out heaviest first by one
    stable sort (stable: CSR order among equal weights *is* the tie
    rule), so the heaviest unmatched neighbour is the first unmatched
    entry of the node's row and the scan stops there.  The sort key is
    complex — NumPy orders complex numbers by real part, then
    imaginary: row, then descending weight — and the rows are already
    in order, which a stable (merging) sort is quick on.
    """
    n = g.n
    key = np.empty(len(g.w), dtype=np.complex128)
    key.real, key.imag = g.src, -g.w
    nbr = g.nbr[np.argsort(key, kind="stable")].tolist()
    ptr = g.ptr.tolist()
    match = [-1] * n
    for u in rng.permutation(n).tolist():
        if match[u] != -1:
            continue
        match[u] = u
        for v in nbr[ptr[u]: ptr[u + 1]]:
            if v != u and match[v] == -1:
                match[u] = v
                match[v] = u
                break
    return np.array(match, dtype=np.int64)


def _contract(g: _UGraph, match: np.ndarray) -> tuple[_UGraph, np.ndarray]:
    """Contract matched pairs into coarse nodes; return (coarse, cmap).

    ``match`` is an involution, so each pair (or unmatched node) has one
    *leader* — its smaller endpoint — and coarse ids number the leaders
    in node order.  Coarse edges are sorted by ``(cu, cv)``, stably, so
    a merged edge sums its weights in fine-CSR order.
    """
    n = g.n
    leader = match >= np.arange(n)
    cmap = np.cumsum(leader) - 1
    cmap[~leader] = cmap[match[~leader]]
    cn = int(np.count_nonzero(leader))
    cvw = np.bincount(cmap, weights=g.vw, minlength=cn)
    cu = cmap[g.src]
    cv = cmap[g.nbr]
    keep = cu != cv
    ptr, vv, ww = merged_csr(cn, cu[keep], cv[keep], g.w[keep])
    return _UGraph(ptr, vv, ww, cvw), cmap


def _greedy_bisection(g: _UGraph, target0: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Initial bisection: BFS region growing to ``target0`` node weight.

    Tries a few random seeds and keeps the lowest-cut result.
    """
    n = g.n
    goal = float(target0 * g.vw.sum())
    ptr, nbr, vw = g.ptr.tolist(), g.nbr.tolist(), g.vw.tolist()
    best_side: np.ndarray | None = None
    best_cut = np.inf
    for s in rng.choice(n, size=min(4, n), replace=False).tolist():
        grown = 0.0
        region: list[int] = []
        queue: deque[int] = deque([s])
        seen = [False] * n
        seen[s] = True
        while queue and grown < goal:
            u = queue.popleft()
            region.append(u)
            grown += vw[u]
            for v in nbr[ptr[u]: ptr[u + 1]]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        # Top up with arbitrary nodes if BFS exhausted a small component
        # (its queue is empty then: every seen node is in the region).
        if grown < goal:
            for u in rng.permutation(n).tolist():
                if grown >= goal:
                    break
                if not seen[u]:
                    region.append(u)
                    grown += vw[u]
        side = np.ones(n, dtype=np.int8)
        side[region] = 0
        cut = _cut_weight(g, side)
        if cut < best_cut:
            best_cut = cut
            best_side = side
    assert best_side is not None
    return best_side


def _cut_weight(g: _UGraph, side: np.ndarray) -> float:
    """Total weight of edges crossing the bisection (each counted twice)."""
    return float(g.w[side[g.src] != side[g.nbr]].sum())


def _refine_bisection(g: _UGraph, side: np.ndarray, target0: float,
                      tol: float, max_passes: int = 4) -> np.ndarray:
    """Greedy KL/FM-style boundary refinement.

    Repeatedly moves the boundary node with the largest positive gain
    (external minus internal incident weight) to the other side, provided
    balance stays within ``tol``.  Each accepted move strictly reduces the
    cut, so refinement never increases the cut weight.
    """
    n = g.n
    total = g.vw.sum()
    lo0 = (target0 - tol) * total
    hi0 = (target0 + tol) * total
    src = g.src
    for _ in range(max_passes):
        w0 = float(g.vw[side == 0].sum())
        # gain[u] = (incident weight to other side) - (incident to own side),
        # summed in CSR order
        cross = side[src] != side[g.nbr]
        gain = np.bincount(src, weights=(2.0 * cross - 1.0) * g.w, minlength=n)
        moved_any = False
        # Visit candidates in decreasing gain; recompute locally on move.
        candidates = np.flatnonzero(gain > 1e-12)
        if len(candidates) == 0:
            break
        for u in candidates[np.argsort(-gain[candidates])]:
            if gain[u] <= 1e-12:
                continue
            if side[u] == 0:
                new_w0 = w0 - g.vw[u]
            else:
                new_w0 = w0 + g.vw[u]
            if not (lo0 <= new_w0 <= hi0):
                continue
            # Flip u and patch gains of u and its neighbours (whole-
            # neighbourhood array update; np.add.at handles repeated
            # neighbour entries exactly like the per-edge loop did).
            side[u] ^= 1
            w0 = new_w0
            gain[u] = -gain[u]
            lo_i, hi_i = g.ptr[u], g.ptr[u + 1]
            nbrs = g.nbr[lo_i:hi_i]
            ws = g.w[lo_i:hi_i]
            np.add.at(gain, nbrs,
                      np.where(side[nbrs] == side[u], -2.0 * ws, 2.0 * ws))
            moved_any = True
        if not moved_any:
            break
    return side


def _bisect(g: _UGraph, target0: float, tol: float,
            rng: np.random.Generator, min_coarse: int = 64) -> np.ndarray:
    """Multilevel bisection of the working graph; returns side[] in {0,1}."""
    if g.n <= min_coarse:
        side = _greedy_bisection(g, target0, rng)
        return _refine_bisection(g, side, target0, tol)
    match = _heavy_edge_matching(g, rng)
    coarse, cmap = _contract(g, match)
    if coarse.n >= g.n * 0.95:  # matching stalled; stop coarsening
        side = _greedy_bisection(g, target0, rng)
        return _refine_bisection(g, side, target0, tol)
    cside = _bisect(coarse, target0, tol, rng, min_coarse)
    side = cside[cmap].astype(np.int8)
    return _refine_bisection(g, side, target0, tol)


#: Allowed deviation of a multilevel partition's parts from equal weight,
#: split evenly across the recursive bisection's levels.
BALANCE_TOL = 0.05


def multilevel_partition(graph: DiGraph, k: int, *,
                         seed: "int | np.random.Generator | None" = 0) -> Partition:
    """Metis-style multilevel k-way partition by recursive bisection.

    Parameters
    ----------
    graph:
        Input digraph; partitioning is performed on its symmetrised,
        weight-merged undirected view (direction does not matter for
        locality).
    k:
        Number of parts.  When ``k >= n`` each node becomes its own part
        (the paper's "partition size is one" degenerate case where Eager
        collapses to General).
    seed:
        RNG seed (matching and seed selection are randomised).
    """
    check_positive("k", k)
    n = graph.num_nodes
    if k >= n:
        return Partition(graph, np.arange(n, dtype=np.int64), k)
    ptr, nbr, w = graph.undirected_csr()
    g = _UGraph(ptr, nbr, w, np.ones(n, dtype=np.float64))
    rng = as_rng(seed)
    assign = np.zeros(n, dtype=np.int64)
    # Per-bisection imbalance compounds multiplicatively down the
    # recursion, so divide the overall tolerance across levels.
    levels = max(1, int(np.ceil(np.log2(k))))
    per_level_tol = BALANCE_TOL / levels

    def rec(nodes: np.ndarray, sub: _UGraph, kk: int, base: int) -> None:
        if kk == 1:
            assign[nodes] = base
            return
        k0 = (kk + 1) // 2
        side = _bisect(sub, k0 / kk, per_level_tol, rng)
        idx0 = np.flatnonzero(side == 0)
        idx1 = np.flatnonzero(side == 1)
        # Guard: a degenerate bisection must still split the node set,
        # otherwise recursion would not terminate.
        if len(idx0) == 0 or len(idx1) == 0:
            half = max(1, len(nodes) * k0 // kk)
            idx0 = np.arange(half)
            idx1 = np.arange(half, len(nodes))
        sub0 = _subgraph(sub, idx0)
        sub1 = _subgraph(sub, idx1)
        rec(nodes[idx0], sub0, k0, base)
        rec(nodes[idx1], sub1, kk - k0, base + k0)

    rec(np.arange(n, dtype=np.int64), g, k, 0)
    return Partition(graph, assign, k)


def _subgraph(g: _UGraph, nodes: np.ndarray) -> _UGraph:
    """Induced undirected subgraph on ``nodes`` (renumbered 0..len-1).

    ``nodes`` must be ascending: the renumbering is then monotone, so
    the kept entries are already in CSR order of the subgraph.
    """
    remap = np.full(g.n, -1, dtype=np.int64)
    remap[nodes] = np.arange(len(nodes))
    uu, vv = remap[g.src], remap[g.nbr]
    keep = (uu >= 0) & (vv >= 0)
    ptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(np.bincount(uu[keep], minlength=len(nodes)), out=ptr[1:])
    return _UGraph(ptr, vv[keep], g.w[keep], g.vw[nodes])


#: Registry used by benchmarks and the partitioner-quality ablation.
PARTITIONERS = {
    "multilevel": multilevel_partition,
    "bfs": bfs_partition,
    "chunk": chunk_partition,
    "hash": hash_partition,
    "random": random_partition,
}

_SEEDLESS = {"hash", "chunk"}


def partition_graph(graph: DiGraph, k: int, *, method: str = "multilevel",
                    seed: "int | np.random.Generator | None" = 0) -> Partition:
    """Dispatch to a registered partitioner by name."""
    if method not in PARTITIONERS:
        raise ValueError(
            f"unknown partitioner {method!r}; choose from {sorted(PARTITIONERS)}"
        )
    fn = PARTITIONERS[method]
    if method in _SEEDLESS:
        return fn(graph, k)
    return fn(graph, k, seed=seed)
