"""A compact weighted directed-graph type backed by CSR arrays.

The paper's workloads (PageRank, SSSP) operate on sparse directed graphs
with hundreds of thousands of nodes and millions of edges, stored as
adjacency lists.  We store the adjacency structure in compressed sparse
row (CSR) form — an ``out_ptr`` offsets array plus flat ``out_dst`` /
``out_w`` arrays — so that whole-graph and per-partition sweeps vectorise
with NumPy, per the scientific-Python guidance of "vectorise the hot loop,
keep views not copies".

The reverse (in-edge) CSR is built lazily on first use and cached; it is a
pure re-indexing of the same edge set.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.util import check_array_1d, stable_pair_order

__all__ = ["DiGraph"]


def merged_csr(num_nodes: int, us: np.ndarray, vs: np.ndarray,
               ws: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR ``(ptr, nbr, w)`` of the edge list ``(us, vs, ws)`` with
    parallel edges merged into one of summed weight.

    The sort by ``(u, v)`` is two stable kernel sorts, so a merged
    edge adds its weights in input order — floating-point sums, and
    everything the partitioner derives from them, depend on that order.
    """
    if len(us) == 0:
        return np.zeros(num_nodes + 1, dtype=np.int64), vs, ws
    order = stable_pair_order(us, vs)
    us, vs, ws = us[order], vs[order], ws[order]
    new_run = np.empty(len(us), dtype=bool)
    new_run[0] = True
    new_run[1:] = (us[1:] != us[:-1]) | (vs[1:] != vs[:-1])
    run_id = np.cumsum(new_run) - 1
    ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(us[new_run], minlength=num_nodes), out=ptr[1:])
    return ptr, vs[new_run], np.bincount(run_id, weights=ws)


class DiGraph:
    """Weighted directed graph in CSR (adjacency list) form.

    Nodes are the integers ``0..num_nodes-1``.  Parallel edges are
    permitted (the generators may produce them; PageRank treats each as an
    independent contribution, matching an adjacency-*list* representation).

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n``.
    src, dst:
        Edge endpoint arrays of equal length ``m``.
    weights:
        Optional edge weights (float); defaults to 1.0 for every edge.
    sort:
        When true (default), edges are sorted by ``(src, dst)`` so that
        each node's out-neighbourhood is a contiguous, ordered slice.

    Notes
    -----
    Construction cost is the sort, two kernel sorts of the edges; all
    per-node accessors afterwards are O(out-degree) views, not copies.
    """

    __slots__ = (
        "num_nodes",
        "out_ptr",
        "out_dst",
        "out_w",
        "_edge_src",
        "_in_ptr",
        "_in_src",
        "_in_w",
        "_in_eid",
    )

    def __init__(
        self,
        num_nodes: int,
        src: Sequence[int] | np.ndarray,
        dst: Sequence[int] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
        *,
        sort: bool = True,
    ) -> None:
        if num_nodes < 0:
            raise ValueError(f"num_nodes must be >= 0, got {num_nodes}")
        src_a = check_array_1d("src", np.asarray(src, dtype=np.int64))
        dst_a = check_array_1d("dst", np.asarray(dst, dtype=np.int64), length=len(src_a))
        if len(src_a) and (src_a.min() < 0 or src_a.max() >= num_nodes):
            raise ValueError("src contains node ids outside [0, num_nodes)")
        if len(dst_a) and (dst_a.min() < 0 or dst_a.max() >= num_nodes):
            raise ValueError("dst contains node ids outside [0, num_nodes)")
        if weights is None:
            w_a = np.ones(len(src_a), dtype=np.float64)
        else:
            w_a = check_array_1d(
                "weights", np.asarray(weights, dtype=np.float64), length=len(src_a)
            )

        if sort and len(src_a):
            order = stable_pair_order(src_a, dst_a)
            src_a, dst_a, w_a = src_a[order], dst_a[order], w_a[order]

        self.num_nodes = int(num_nodes)
        self.out_dst = dst_a
        self.out_w = w_a
        self._edge_src = src_a
        counts = np.bincount(src_a, minlength=num_nodes)
        self.out_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=self.out_ptr[1:])
        # Lazily built reverse CSR.
        self._in_ptr: np.ndarray | None = None
        self._in_src: np.ndarray | None = None
        self._in_w: np.ndarray | None = None
        self._in_eid: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Alternate constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_adjacency(
        cls,
        adjacency: Mapping[int, Iterable[int]] | Sequence[Iterable[int]],
        *,
        num_nodes: int | None = None,
    ) -> "DiGraph":
        """Build from an adjacency-list mapping ``node -> iterable of successors``.

        This mirrors the on-disk input format the paper uses ("a graph
        represented as adjacency lists as input", §V-B).
        """
        src_list: list[int] = []
        dst_list: list[int] = []
        if isinstance(adjacency, Mapping):
            items: Iterable[tuple[int, Iterable[int]]] = adjacency.items()
            max_key = max(adjacency.keys(), default=-1)
        else:
            items = enumerate(adjacency)
            max_key = len(adjacency) - 1
        max_node = max_key
        for u, nbrs in items:
            for v in nbrs:
                src_list.append(u)
                dst_list.append(v)
                if v > max_node:
                    max_node = v
        n = num_nodes if num_nodes is not None else max_node + 1
        return cls(n, src_list, dst_list)

    @classmethod
    def from_weighted_edges(
        cls, num_nodes: int, edges: Iterable[tuple[int, int, float]]
    ) -> "DiGraph":
        """Build from an iterable of ``(src, dst, weight)`` triples."""
        edges = list(edges)
        if not edges:
            return cls(num_nodes, [], [], [])
        src, dst, w = zip(*edges)
        return cls(num_nodes, src, dst, w)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of directed edges ``m`` (parallel edges counted)."""
        return int(len(self.out_dst))

    @property
    def edge_src(self) -> np.ndarray:
        """Flat array of edge sources aligned with :attr:`out_dst` / :attr:`out_w`."""
        return self._edge_src

    def out_degree(self) -> np.ndarray:
        """Out-degree of every node as an ``(n,)`` int array."""
        return np.diff(self.out_ptr)

    def in_degree(self) -> np.ndarray:
        """In-degree of every node as an ``(n,)`` int array."""
        return np.bincount(self.out_dst, minlength=self.num_nodes)

    def successors(self, u: int) -> np.ndarray:
        """View of node ``u``'s out-neighbours (with multiplicity)."""
        self._check_node(u)
        return self.out_dst[self.out_ptr[u]: self.out_ptr[u + 1]]

    def out_weights(self, u: int) -> np.ndarray:
        """View of the weights of node ``u``'s out-edges."""
        self._check_node(u)
        return self.out_w[self.out_ptr[u]: self.out_ptr[u + 1]]

    def predecessors(self, u: int) -> np.ndarray:
        """Array of node ``u``'s in-neighbours (with multiplicity)."""
        self._ensure_in_csr()
        assert self._in_ptr is not None and self._in_src is not None
        return self._in_src[self._in_ptr[u]: self._in_ptr[u + 1]]

    def in_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reverse CSR ``(in_ptr, in_src, in_w)``; built lazily, cached."""
        self._ensure_in_csr()
        assert self._in_ptr is not None
        return self._in_ptr, self._in_src, self._in_w  # type: ignore[return-value]

    def has_edge(self, u: int, v: int) -> bool:
        """True when at least one ``u -> v`` edge exists."""
        self._check_node(u)
        self._check_node(v)
        nbrs = self.successors(u)
        # successors are sorted when the graph was built with sort=True;
        # fall back to linear scan otherwise.
        i = np.searchsorted(nbrs, v)
        if i < len(nbrs) and nbrs[i] == v:
            return True
        return bool(np.any(nbrs == v))

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over ``(src, dst, weight)`` triples."""
        for i in range(self.num_edges):
            yield int(self._edge_src[i]), int(self.out_dst[i]), float(self.out_w[i])

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The flat ``(src, dst, weight)`` arrays (views, not copies)."""
        return self._edge_src, self.out_dst, self.out_w

    def adjacency_dict(self) -> dict[int, list[int]]:
        """Materialise the adjacency-list dict (small graphs / tests only)."""
        return {u: self.successors(u).tolist() for u in range(self.num_nodes)}

    def with_weights(self, weights: np.ndarray) -> "DiGraph":
        """A new graph with identical structure but different edge weights.

        ``weights`` must align with :meth:`edge_arrays` order.
        """
        w = check_array_1d("weights", np.asarray(weights, dtype=np.float64),
                           length=self.num_edges)
        return DiGraph(self.num_nodes, self._edge_src, self.out_dst, w, sort=False)

    def reverse(self) -> "DiGraph":
        """The transpose graph (every edge flipped)."""
        return DiGraph(self.num_nodes, self.out_dst, self._edge_src, self.out_w)

    def undirected_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Symmetrised CSR ``(ptr, nbr, w)`` with both edge directions.

        Parallel/duplicate edges between the same pair are *merged* with
        summed weights.  Self-loops are dropped.  This is the view the
        multilevel partitioner operates on (partitioning ignores edge
        direction, as Metis does).
        """
        s, d, w = self._edge_src, self.out_dst, self.out_w
        keep = s != d
        s, d, w = s[keep], d[keep], w[keep]
        return merged_csr(self.num_nodes, np.concatenate([s, d]),
                          np.concatenate([d, s]), np.concatenate([w, w]))

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DiGraph(n={self.num_nodes}, m={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and np.array_equal(self._edge_src, other._edge_src)
            and np.array_equal(self.out_dst, other.out_dst)
            and np.array_equal(self.out_w, other.out_w)
        )

    def __hash__(self) -> int:  # graphs are mutable-ish containers
        raise TypeError("DiGraph is not hashable")

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self.num_nodes:
            raise IndexError(f"node {u} out of range [0, {self.num_nodes})")

    def _ensure_in_csr(self) -> None:
        if self._in_ptr is not None:
            return
        d = self.out_dst
        order = np.argsort(d, kind="stable")
        self._in_src = self._edge_src[order]
        self._in_w = self.out_w[order]
        self._in_eid = order
        counts = np.bincount(d, minlength=self.num_nodes)
        self._in_ptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=self._in_ptr[1:])
