"""Tests for PageRank: correctness against the oracle, General vs Eager
behaviour, and both execution paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import (
    PageRankBlockSpec,
    PageRankKVSpec,
    pagerank,
    pagerank_reference,
)
from repro.cluster import SimCluster
from repro.core import DriverConfig, EngineBackend, IterationLoop
from repro.graph import (
    DiGraph,
    chunk_partition,
    hash_partition,
    multilevel_partition,
)

from tests.inputs import ring_graph

TOL = 1e-5


@pytest.fixture(scope="module")
def ref(request):
    return None  # placeholder; per-graph references computed in tests


class TestCorrectness:
    def test_general_matches_oracle(self, small_graph, small_partition):
        res = pagerank(small_graph, small_partition, mode="general")
        expected = pagerank_reference(small_graph)
        assert np.abs(res.ranks - expected).max() < 10 * TOL
        assert res.converged

    def test_eager_matches_oracle(self, small_graph, small_partition):
        res = pagerank(small_graph, small_partition, mode="eager")
        expected = pagerank_reference(small_graph)
        assert np.abs(res.ranks - expected).max() < 100 * TOL

    def test_eager_and_general_same_fixed_point(self, small_graph, small_partition):
        gen = pagerank(small_graph, small_partition, mode="general")
        eag = pagerank(small_graph, small_partition, mode="eager")
        assert np.abs(gen.ranks - eag.ranks).max() < 100 * TOL

    def test_ring_graph_uniform_ranks(self):
        # a directed cycle is perfectly symmetric: all ranks equal 1
        g = ring_graph(10)
        res = pagerank(g, chunk_partition(g, 2), mode="eager")
        assert np.allclose(res.ranks, 1.0, atol=1e-4)

    def test_dangling_nodes_handled(self):
        # node 2 has no out-edges; no NaN/inf may appear
        g = DiGraph(3, [0, 1], [1, 2])
        res = pagerank(g, chunk_partition(g, 2), mode="eager")
        assert np.all(np.isfinite(res.ranks))
        # source-only node keeps the teleport mass
        assert res.ranks[0] == pytest.approx(0.15, abs=1e-3)

    def test_hub_ranks_high(self, small_graph, small_partition):
        res = pagerank(small_graph, small_partition, mode="eager")
        hub = int(small_graph.in_degree().argmax())
        # the max in-degree node need not be the absolute rank maximum
        # (rank weighs contributor quality), but it must be near the top
        assert res.ranks[hub] >= np.percentile(res.ranks, 95)

    def test_damping_parameter(self, small_graph, small_partition):
        lo = pagerank(small_graph, small_partition, mode="general", damping=0.5)
        hi = pagerank(small_graph, small_partition, mode="general", damping=0.95)
        # lower damping pulls ranks toward the uniform teleport value
        assert lo.ranks.std() < hi.ranks.std()
        assert lo.global_iters < hi.global_iters

    def test_invalid_args(self, small_graph, small_partition):
        with pytest.raises(ValueError):
            pagerank(small_graph, small_partition, damping=1.0)
        with pytest.raises(ValueError):
            PageRankBlockSpec(small_graph, small_partition, tol=0)

    @pytest.mark.parametrize("tol", [0.0, -1e-5])
    def test_block_spec_rejects_nonpositive_tol(self, small_graph,
                                                small_partition, tol):
        """The shared constructor refuses a tolerance no residual can
        drop below."""
        with pytest.raises(ValueError, match="tol"):
            PageRankBlockSpec(small_graph, small_partition, tol=tol)

    def test_kv_spec_runs_at_the_base_defaults(self, small_graph,
                                               small_partition):
        """The engine spec takes no damping or tolerance: it runs at the
        shared base's defaults, the block spec's too."""
        kv = PageRankKVSpec(small_graph, small_partition)
        block = PageRankBlockSpec(small_graph, small_partition)
        assert (kv.damping, kv.tol) == (block.damping, block.tol) == (0.85, 1e-5)


class TestPaperBehaviour:
    def test_general_iterations_independent_of_partitions(self, small_graph):
        # Figure 2: "the number of iterations does not change in the
        # general case"
        iters = []
        for k in (2, 8, 32):
            part = multilevel_partition(small_graph, k, seed=0)
            iters.append(pagerank(small_graph, part, mode="general").global_iters)
        assert len(set(iters)) == 1

    def test_eager_fewer_global_iterations(self, small_graph):
        part = multilevel_partition(small_graph, 4, seed=0)
        gen = pagerank(small_graph, part, mode="general")
        eag = pagerank(small_graph, part, mode="eager")
        assert eag.global_iters < gen.global_iters / 2

    def test_eager_iterations_grow_with_partitions(self, small_graph):
        few = multilevel_partition(small_graph, 4, seed=0)
        many = multilevel_partition(small_graph, 64, seed=0)
        it_few = pagerank(small_graph, few, mode="eager").global_iters
        it_many = pagerank(small_graph, many, mode="eager").global_iters
        assert it_few < it_many

    def test_eager_higher_serial_op_count(self, small_graph, small_partition):
        # §II: partial synchronization trades more serial operations for
        # fewer global synchronizations
        gen = pagerank(small_graph, small_partition, mode="general")
        eag = pagerank(small_graph, small_partition, mode="eager")
        assert eag.result.total_local_iters > gen.result.total_local_iters

    def test_eager_faster_in_sim_time(self, small_graph, small_partition):
        gen = pagerank(small_graph, small_partition, mode="general",
                       cluster=SimCluster())
        eag = pagerank(small_graph, small_partition, mode="eager",
                       cluster=SimCluster())
        assert eag.sim_time < gen.sim_time / 2

    def test_partition_size_one_degenerates_to_general(self, small_graph):
        # §V-B.4: "If the partition size is one ... Eager PageRank
        # becomes General PageRank"
        singletons = multilevel_partition(small_graph, small_graph.num_nodes)
        gen = pagerank(small_graph, singletons, mode="general")
        eag = pagerank(small_graph, singletons, mode="eager")
        assert eag.global_iters == gen.global_iters

    def test_one_partition_converges_in_one_global_round(self, small_graph):
        # §V-B.4: with one partition "its local MapReduce would compute
        # the final PageRanks of all the nodes"
        whole = multilevel_partition(small_graph, 1, seed=0)
        eag = pagerank(small_graph, whole, mode="eager",
                       config=DriverConfig(mode="eager", max_local_iters=5000))
        assert eag.global_iters <= 2

    def test_good_partition_beats_hash(self, small_graph):
        good = multilevel_partition(small_graph, 8, seed=0)
        bad = hash_partition(small_graph, 8)
        it_good = pagerank(small_graph, good, mode="eager").global_iters
        it_bad = pagerank(small_graph, bad, mode="eager").global_iters
        assert it_good <= it_bad


def _engine_run(graph, partition, mode):
    """PageRankKVSpec on the engine; the ranks read off the dict state."""
    res = IterationLoop(EngineBackend(PageRankKVSpec(graph, partition)),
                        DriverConfig(mode=mode)).run()
    ranks = np.array([res.state[u][0] for u in range(graph.num_nodes)])
    return res, ranks


class TestKVPath:
    def test_kv_general_matches_block(self, small_graph, small_partition):
        kv, ranks = _engine_run(small_graph, small_partition, "general")
        block = pagerank(small_graph, small_partition, mode="general")
        assert np.abs(ranks - block.ranks).max() < 100 * TOL
        assert kv.global_iters == block.global_iters

    def test_kv_eager_matches_oracle(self, small_graph, small_partition):
        _, ranks = _engine_run(small_graph, small_partition, "eager")
        expected = pagerank_reference(small_graph)
        assert np.abs(ranks - expected).max() < 100 * TOL

    def test_kv_eager_fewer_global_iters(self, small_graph, small_partition):
        gen, _ = _engine_run(small_graph, small_partition, "general")
        eag, _ = _engine_run(small_graph, small_partition, "eager")
        assert eag.global_iters < gen.global_iters / 2


class TestReference:
    def test_reference_fixed_point(self, small_graph):
        # the oracle's output satisfies eq. 1 to high accuracy
        ranks = pagerank_reference(small_graph, tol=1e-12)
        src, dst, _ = small_graph.edge_arrays()
        outdeg = small_graph.out_degree().astype(float)
        inv = np.where(outdeg > 0, 1 / np.maximum(outdeg, 1), 0)
        contrib = np.zeros(small_graph.num_nodes)
        np.add.at(contrib, dst, ranks[src] * inv[src])
        assert np.abs(0.15 + 0.85 * contrib - ranks).max() < 1e-9
