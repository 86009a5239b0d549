"""``repro.graph.split_edges`` against the per-part builders it
replaced.

``_PartitionCSR`` and ``_PartitionEdges`` below are the builders the
block specs used to carry (``apps/pagerank.py`` / ``apps/sssp.py``),
moved here verbatim as the oracle: one full scan of the edge list *per
part*, boolean masks, a full-length ``local_of`` per part.  Every array
of every :class:`EdgeBlock` must equal theirs — same edges, same order
inside the part — because that order is what keeps the specs' scatter
sums bitwise.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.apps import PageRankBlockSpec, SsspBlockSpec
from repro.graph import (
    DiGraph,
    EdgeBlock,
    Partition,
    hash_partition,
    split_edges,
)


class _PartitionCSR:
    """Per-partition edge structure for the vectorised local solve."""

    __slots__ = ("nodes", "local_of", "int_src", "int_dst", "ext_src",
                 "ext_dst", "out_cut_edges", "out_edges")

    def __init__(self, graph: DiGraph, assign: np.ndarray, part_id: int,
                 nodes: np.ndarray) -> None:
        self.nodes = nodes
        n = graph.num_nodes
        local_of = np.full(n, -1, dtype=np.int64)
        local_of[nodes] = np.arange(len(nodes))
        self.local_of = local_of
        src, dst, _ = graph.edge_arrays()
        in_p_dst = assign[dst] == part_id
        in_p_src = assign[src] == part_id
        internal = in_p_src & in_p_dst
        incoming = ~in_p_src & in_p_dst
        self.int_src = local_of[src[internal]]
        self.int_dst = local_of[dst[internal]]
        self.ext_src = src[incoming]          # global ids of remote sources
        self.ext_dst = local_of[dst[incoming]]
        self.out_cut_edges = int((in_p_src & ~in_p_dst).sum())
        self.out_edges = int(in_p_src.sum())


class _PartitionEdges:
    """Per-partition weighted edge structure for the local relaxations."""

    __slots__ = ("nodes", "int_src", "int_dst", "int_w", "ext_src",
                 "ext_dst", "ext_w", "out_cut_edges", "out_edges")

    def __init__(self, graph: DiGraph, assign: np.ndarray, part_id: int,
                 nodes: np.ndarray) -> None:
        self.nodes = nodes
        local_of = np.full(graph.num_nodes, -1, dtype=np.int64)
        local_of[nodes] = np.arange(len(nodes))
        src, dst, w = graph.edge_arrays()
        in_p_src = assign[src] == part_id
        in_p_dst = assign[dst] == part_id
        internal = in_p_src & in_p_dst
        incoming = ~in_p_src & in_p_dst
        self.int_src = local_of[src[internal]]
        self.int_dst = local_of[dst[internal]]
        self.int_w = w[internal]
        self.ext_src = src[incoming]
        self.ext_dst = local_of[dst[incoming]]
        self.ext_w = w[incoming]
        self.out_cut_edges = int((in_p_src & ~in_p_dst).sum())
        self.out_edges = int(in_p_src.sum())


def _same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


def assert_blocks_match_oracle(graph: DiGraph, partition: Partition,
                               blocks: "list[EdgeBlock]") -> None:
    assign, parts = partition.assign, partition.parts()
    src, dst, w = graph.edge_arrays()
    assert len(blocks) == partition.k
    for p, b in enumerate(blocks):
        csr = _PartitionCSR(graph, assign, p, parts[p])
        pe = _PartitionEdges(graph, assign, p, parts[p])
        assert b.nodes is parts[p]      # the partition's own ids, not a copy
        for name, want in (("int_src", csr.int_src), ("int_dst", csr.int_dst),
                           ("in_src", csr.ext_src), ("in_dst", csr.ext_dst)):
            _same(getattr(b, name), want)
        for name, want in (("int_src", pe.int_src), ("int_dst", pe.int_dst),
                           ("int_w", pe.int_w), ("in_src", pe.ext_src),
                           ("in_dst", pe.ext_dst), ("in_w", pe.ext_w)):
            _same(getattr(b, name), want)
        # the counts the builders kept are lengths now
        assert len(b.cut_src) == csr.out_cut_edges == pe.out_cut_edges
        assert len(b.int_src) + len(b.cut_src) == csr.out_edges == pe.out_edges
        # the outgoing cut edges (the KV specs' view; the old builders
        # only counted them), in edge_arrays() order
        cut = (assign[src] == p) & (assign[dst] != p)
        _same(b.cut_src, csr.local_of[src[cut]])
        _same(b.cut_dst, dst[cut])
        _same(b.cut_w, w[cut])


@st.composite
def partitioned_digraphs(draw, max_nodes=30, max_edges=90):
    """A digraph with self-loops, parallel edges and dangling nodes, and
    an arbitrary assignment to ``k`` parts — ``k`` may exceed ``n``, and
    a part may be empty even when it does not."""
    n = draw(st.integers(1, max_nodes))
    m = draw(st.integers(0, max_edges))
    node = st.integers(0, n - 1)
    src = draw(st.lists(node, min_size=m, max_size=m))
    dst = draw(st.lists(node, min_size=m, max_size=m))
    for i in draw(st.lists(st.integers(0, max(m - 1, 0)), max_size=6)):
        if m:
            if draw(st.booleans()):
                dst[i] = src[i]                         # self-loop
            else:
                src[i], dst[i] = src[0], dst[0]         # parallel edge
    w = draw(st.lists(st.floats(0.1, 100.0, allow_nan=False),
                      min_size=m, max_size=m))
    k = draw(st.integers(1, n + 4))
    assign = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return n, src, dst, w, k, assign


class TestAgainstTheDeletedBuilders:
    @settings(deadline=None, max_examples=150)
    @given(partitioned_digraphs())
    def test_every_array_equal(self, case):
        n, src, dst, w, k, assign = case
        g = DiGraph(n, src, dst, w)
        part = Partition(g, np.array(assign, dtype=np.int64), k)
        assert_blocks_match_oracle(g, part, split_edges(*g.edge_arrays(), part))

    @settings(deadline=None, max_examples=60)
    @given(partitioned_digraphs())
    def test_weighted_twin_of_the_partitioned_graph(self, case):
        """``cli.py schedule`` and ``sssp_spec`` callers partition the
        unweighted graph and pass its weighted twin: the blocks carry
        the twin's weights over the partition's node split."""
        n, src, dst, _w, k, assign = case
        plain = DiGraph(n, src, dst)
        part = Partition(plain, np.array(assign, dtype=np.int64), k)
        # a distinct weight per edge position, so a reordering shows
        twin = plain.with_weights(np.arange(1.0, len(src) + 1.0))
        assert twin is not part.graph
        assert_blocks_match_oracle(twin, part, split_edges(*twin.edge_arrays(), part))

    def test_fixture_graph(self, small_graph, weighted_graph, small_partition):
        assert_blocks_match_oracle(small_graph, small_partition,
                                   split_edges(*small_graph.edge_arrays(), small_partition))
        assert_blocks_match_oracle(weighted_graph, small_partition,
                                   split_edges(*weighted_graph.edge_arrays(), small_partition))
        part = hash_partition(small_graph, 37)
        assert_blocks_match_oracle(small_graph, part,
                                   split_edges(*small_graph.edge_arrays(), part))

    def test_no_edges_and_k_beyond_n(self):
        g = DiGraph(3, [], [])
        blocks = split_edges(*g.edge_arrays(), Partition(g, np.array([0, 4, 4]), 6))
        assert [b.nodes.tolist() for b in blocks] == [[0], [], [], [], [1, 2], []]
        for b in blocks:
            for arr in b[1:]:
                assert len(arr) == 0
            assert b.int_w.dtype == np.float64 and b.int_src.dtype == np.int64


class TestArrayLevelEntry:
    def test_sssp_spec_splits_the_edge_arrays(
            self, weighted_graph, weighted_partition):
        a = SsspBlockSpec(weighted_graph, weighted_partition)._blocks
        b = split_edges(*weighted_graph.edge_arrays(), weighted_partition)
        for x, y in zip(a, b, strict=True):
            for u, v in zip(x, y, strict=True):
                assert np.array_equal(u, v)

    def test_carries_any_per_edge_value_in_input_order(self, small_partition):
        """An unsorted COO list (Jacobi's ``rows/cols/vals``): every set
        keeps the order of the arrays it was split from."""
        n = small_partition.graph.num_nodes
        rng = np.random.default_rng(0)
        rows, cols = rng.integers(0, n, 500), rng.integers(0, n, 500)
        tag = np.arange(500, dtype=np.float64)          # value = input position
        assign = small_partition.assign
        for p, b in enumerate(split_edges(rows, cols, tag, small_partition)):
            mine, theirs = assign[rows] == p, assign[cols] == p
            assert b.int_w.tolist() == tag[mine & theirs].tolist()
            assert b.cut_w.tolist() == tag[mine & ~theirs].tolist()
            assert b.in_w.tolist() == tag[~mine & theirs].tolist()
            nodes = b.nodes
            assert nodes[b.int_src].tolist() == rows[mine & theirs].tolist()
            assert nodes[b.int_dst].tolist() == cols[mine & theirs].tolist()
            assert nodes[b.cut_src].tolist() == rows[mine & ~theirs].tolist()
            assert b.cut_dst.tolist() == cols[mine & ~theirs].tolist()
            assert b.in_src.tolist() == rows[~mine & theirs].tolist()
            assert nodes[b.in_dst].tolist() == cols[~mine & theirs].tolist()

    def test_more_parts_than_a_16_bit_key_holds(self):
        # 2k crosses 65536: the sort key widens, nothing else changes
        n = 40_000
        rng = np.random.default_rng(1)
        g = DiGraph(n, rng.integers(0, n, 3 * n), rng.integers(0, n, 3 * n))
        part = Partition(g, rng.permutation(n), n)
        blocks = split_edges(*g.edge_arrays(), part)
        src, dst, _ = g.edge_arrays()
        assert sum(len(b.int_src) for b in blocks) == int((src == dst).sum())
        assert sum(len(b.cut_src) for b in blocks) == int((src != dst).sum())
        for p in (0, 123, n - 1):
            csr = _PartitionCSR(g, part.assign, p, part.parts()[p])
            _same(blocks[p].in_src, csr.ext_src)
            _same(blocks[p].in_dst, csr.ext_dst)
            _same(blocks[p].int_src, csr.int_src)


class TestScaling:
    def test_retained_memory_does_not_grow_with_k(self):
        """20k nodes in 2000 parts: the per-part builders kept one
        full-length ``local_of`` per part (2000 x 20k x 8 B = 320 MB);
        the table is a handful of edge-length arrays."""
        n, k = 20_000, 2_000
        rng = np.random.default_rng(0)
        g = DiGraph(n, rng.integers(0, n, 5 * n), rng.integers(0, n, 5 * n))
        part = Partition(g, rng.integers(0, k, n), k)
        part.parts()                    # cached on the partition, not the spec's
        tracemalloc.start()
        try:
            spec = PageRankBlockSpec(g, part)
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert spec.num_partitions() == k
        assert retained < 32 * 2 ** 20, f"{retained / 2 ** 20:.1f} MB retained"
