"""A KV spec is its app's block spec plus the §IV functions.

``PageRankKVSpec`` subclasses ``PageRankBlockSpec`` and ``SsspKVSpec``
subclasses ``SsspBlockSpec``; the engine view (``apps/_nodeblock.
NodeRowState``) adds the ``(N, 2)`` row state and the boundary emission
once for both.  So one instance runs on the simulator's block path to
the bit of the block spec, and the view's generic ``initial_state``
reads, in its ``ext`` column, what each app once wrote by hand.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.pagerank import PageRankBlockSpec, PageRankKVSpec
from repro.apps.sssp import SsspBlockSpec, SsspKVSpec
from repro.cluster import SimCluster
from repro.core import BlockBackend, DriverConfig, IterationLoop
from repro.graph import DiGraph, Partition, attach_random_weights

from tests.apps.test_local_solve_reference import _messy_graph, _partitions


def _block_run(spec, mode):
    cluster = SimCluster()
    res = IterationLoop(BlockBackend(spec, cluster=cluster),
                        DriverConfig(mode=mode)).run()
    return res, cluster.clock


def assert_same_block_run(kv_spec, block_spec, mode):
    kv, kv_clock = _block_run(kv_spec, mode)
    block, block_clock = _block_run(block_spec, mode)
    assert kv.state.dtype == block.state.dtype == np.float64
    assert kv.state.tobytes() == block.state.tobytes()
    assert kv.global_iters == block.global_iters
    assert kv.converged and block.converged
    assert repr(kv.history) == repr(block.history)  # repr: float bits
    assert kv.sim_time == block.sim_time and kv_clock == block_clock


@pytest.mark.parametrize("mode", ["general", "eager"])
class TestOneInstanceBothBackends:
    def test_pagerank(self, small_graph, small_partition, mode):
        assert_same_block_run(PageRankKVSpec(small_graph, small_partition),
                              PageRankBlockSpec(small_graph, small_partition),
                              mode)
        g = _messy_graph(1)
        for part in _partitions(g):
            assert_same_block_run(PageRankKVSpec(g, part),
                                  PageRankBlockSpec(g, part), mode)

    def test_sssp(self, weighted_graph, weighted_partition, mode):
        assert_same_block_run(SsspKVSpec(weighted_graph, weighted_partition),
                              SsspBlockSpec(weighted_graph, weighted_partition),
                              mode)
        g = attach_random_weights(_messy_graph(2), low=1.0, high=10.0, seed=5)
        source = int(g.out_dst[0])
        for part in _partitions(g):
            assert_same_block_run(SsspKVSpec(g, part, source=source),
                                  SsspBlockSpec(g, part, source=source), mode)


def _graph_with_an_empty_part():
    """Parts 0 and 2 with cut edges both ways, part 1 empty, part 3 a
    component of its own: node 6 has edges, but none leaves the part."""
    src = [0, 1, 1, 2, 3, 3, 4, 4, 0, 6, 7]
    dst = [1, 0, 3, 4, 0, 4, 2, 1, 3, 7, 6]
    w = [1.5, 2.0, 0.5, 3.0, 1.0, 2.5, 4.0, 0.25, 6.0, 1.0, 2.0]
    g = DiGraph(8, src, dst, w)
    assign = np.array([0, 0, 0, 2, 2, 2, 3, 3])
    return g, Partition(g, assign, 4)


class TestGenericInitialState:
    """The view's ``initial_state`` is ``init_state()`` beside each
    part's ``frozen_columns``; its ``ext`` column equals the closed form
    each KV spec wrote by hand before the view existed."""

    def test_pagerank_ext_is_the_incoming_cut_weight(self):
        g, part = _graph_with_an_empty_part()
        spec = PageRankKVSpec(g, part)
        # rank 1 pushed over every incoming cut edge
        ext = np.zeros(g.num_nodes, dtype=np.float64)
        for b in spec._blocks:
            np.add.at(ext, b.nodes[b.in_dst], b.in_w)
        state = spec.initial_state()
        assert state.shape == (g.num_nodes, 2)
        assert state[:, 0].tobytes() == np.ones(g.num_nodes).tobytes()
        assert state[:, 1].tobytes() == ext.tobytes()
        assert len(spec._blocks[1].nodes) == 0
        assert (state[:, 1] > 0).sum() == 5  # nodes 0, 1, 3, 4 and 2

    @pytest.mark.parametrize("source", [0, 3, 6])
    def test_sssp_ext_is_the_sources_cut_edges(self, source):
        g, part = _graph_with_an_empty_part()
        spec = SsspKVSpec(g, part, source=source)
        # the source's outgoing cut edges offer their weights; nothing
        # else is reached yet
        want = np.full((g.num_nodes, 2), np.inf, dtype=np.float64)
        want[source, 0] = 0.0
        b = spec._blocks[part.assign[source]]
        out = b.nodes[b.cut_src] == source
        np.minimum.at(want[:, 1], b.cut_dst[out], b.cut_w[out])
        state = spec.initial_state()
        assert state.tobytes() == want.tobytes()
        if source == 6:  # its part has no cut edge: every ext is inf
            assert len(spec._blocks[3].cut_src) == 0
            assert np.isinf(state[:, 1]).all()
