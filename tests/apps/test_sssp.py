"""Tests for SSSP: exactness against Dijkstra and paper behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import SsspBlockSpec, SsspKVSpec, sssp_reference, sssp_spec
from repro.cluster import SimCluster
from repro.core import DriverConfig, EngineBackend, IterationLoop
from repro.graph import (
    DiGraph,
    chunk_partition,
    multilevel_partition,
)

from tests.inputs import ring_graph


class TestCorrectness:
    @pytest.mark.parametrize("mode", ["general", "eager"])
    def test_matches_dijkstra(self, weighted_graph, weighted_partition, mode):
        res = sssp_spec(weighted_graph, weighted_partition, mode=mode).run()
        expected = sssp_reference(weighted_graph)
        assert np.allclose(res.state, expected, equal_nan=False)
        assert res.converged

    def test_source_distance_zero(self, weighted_graph, weighted_partition):
        res = sssp_spec(weighted_graph, weighted_partition, source=5).run()
        assert res.state[5] == 0.0

    def test_nondefault_source_matches_oracle(self, weighted_graph, weighted_partition):
        res = sssp_spec(weighted_graph, weighted_partition, source=17,
                        mode="eager").run()
        assert np.allclose(res.state, sssp_reference(weighted_graph, source=17))

    def test_unreachable_nodes_stay_inf(self):
        # 0 -> 1; node 2 unreachable
        g = DiGraph(3, [0], [1], [2.0])
        res = sssp_spec(g, chunk_partition(g, 2), mode="eager").run()
        assert res.state.tolist() == [0.0, 2.0, np.inf]

    def test_ring_distances(self):
        g = ring_graph(6).with_weights(np.full(6, 1.0))
        res = sssp_spec(g, chunk_partition(g, 3), mode="eager").run()
        assert res.state.tolist() == [0, 1, 2, 3, 4, 5]

    def test_parallel_edges_take_min(self):
        g = DiGraph(2, [0, 0], [1, 1], [5.0, 2.0])
        res = sssp_spec(g, chunk_partition(g, 1), mode="general").run()
        assert res.state[1] == 2.0

    def test_edgeless_graph_reaches_only_the_source(self):
        g = DiGraph(4, [], [], [])
        expected = [np.inf, np.inf, 0.0, np.inf]
        assert sssp_reference(g, source=2).tolist() == expected
        res = sssp_spec(g, chunk_partition(g, 2), source=2, mode="eager").run()
        assert res.state.tolist() == expected

    def test_oracle_collapses_parallel_edges_to_their_min(self):
        g = DiGraph(3, [0, 0, 1, 0], [1, 1, 2, 2], [5.0, 2.0, 1.0, 9.0])
        assert sssp_reference(g).tolist() == [0.0, 2.0, 3.0]

    def test_monotone_nonincreasing_distances(self, weighted_graph, weighted_partition):
        # distances never increase across global iterations
        spec = SsspBlockSpec(weighted_graph, weighted_partition)
        state = spec.init_state()
        for _ in range(5):
            reports = [spec.local_solve(p, state, max_local_iters=3)
                       for p in range(weighted_partition.k)]
            new_state, _, _ = spec.global_combine(state, reports)
            finite = np.isfinite(state)
            assert np.all(new_state[finite] <= state[finite] + 1e-12)
            state = new_state

    def test_invalid_args(self, weighted_graph, weighted_partition):
        with pytest.raises(ValueError, match="source"):
            sssp_spec(weighted_graph, weighted_partition, source=-1).run()

    def test_negative_weights_rejected(self):
        g = DiGraph(2, [0], [1], [-1.0])
        with pytest.raises(ValueError, match="non-negative"):
            SsspBlockSpec(g, chunk_partition(g, 1))

    def test_kv_spec_rejects_negative_weights(self):
        """The min-plus fixed point over a negative edge is no shortest
        path: the engine-path spec refuses it as the block spec does."""
        g = DiGraph(2, [0], [1], [-1.0])
        with pytest.raises(ValueError, match="non-negative"):
            SsspKVSpec(g, chunk_partition(g, 1))


class TestPaperBehaviour:
    def test_general_iterations_independent_of_partitions(self, weighted_graph):
        iters = {
            k: sssp_spec(weighted_graph,
                         multilevel_partition(weighted_graph, k, seed=0),
                         mode="general").run().global_iters
            for k in (2, 8, 32)
        }
        assert len(set(iters.values())) == 1

    def test_eager_fewer_global_iterations(self, weighted_graph, weighted_partition):
        gen = sssp_spec(weighted_graph, weighted_partition,
                        mode="general").run()
        eag = sssp_spec(weighted_graph, weighted_partition, mode="eager").run()
        assert eag.global_iters < gen.global_iters

    def test_eager_iterations_grow_with_partitions(self, weighted_graph):
        few = multilevel_partition(weighted_graph, 2, seed=0)
        many = multilevel_partition(weighted_graph, 64, seed=0)
        assert (sssp_spec(weighted_graph, few, mode="eager").run().global_iters
                <= sssp_spec(weighted_graph, many, mode="eager").run().global_iters)

    def test_eager_faster_in_sim_time(self, weighted_graph, weighted_partition):
        gen = sssp_spec(weighted_graph, weighted_partition,
                        mode="general").run(SimCluster())
        eag = sssp_spec(weighted_graph, weighted_partition,
                        mode="eager").run(SimCluster())
        assert eag.sim_time < gen.sim_time

    def test_general_rounds_bound_by_hops(self, weighted_graph, weighted_partition):
        # Bellman-Ford needs (max shortest-path hop count + 1) rounds
        gen = sssp_spec(weighted_graph, weighted_partition,
                        mode="general").run()
        assert gen.global_iters <= weighted_graph.num_nodes


def _engine_run(graph, partition, mode):
    """SsspKVSpec on the engine; the distances read off the state rows."""
    res = IterationLoop(EngineBackend(SsspKVSpec(graph, partition)),
                        DriverConfig(mode=mode)).run()
    dist = np.array([res.state[u][0] for u in range(graph.num_nodes)])
    return res, dist


class TestKVPath:
    @pytest.mark.parametrize("mode", ["general", "eager"])
    def test_kv_matches_dijkstra(self, weighted_graph, weighted_partition, mode):
        _, dist = _engine_run(weighted_graph, weighted_partition, mode)
        assert np.allclose(dist, sssp_reference(weighted_graph))

    def test_kv_matches_block(self, weighted_graph, weighted_partition):
        # Same distances to the bit (min-plus is exact); the round counts
        # may differ by one, as the KV initial state already offers the
        # source's cross edges.
        _, dist = _engine_run(weighted_graph, weighted_partition, "general")
        block = sssp_spec(weighted_graph, weighted_partition,
                          mode="general").run()
        assert dist.tobytes() == block.state.tobytes()

    def test_kv_eager_fewer_rounds(self, weighted_graph, weighted_partition):
        gen, _ = _engine_run(weighted_graph, weighted_partition, "general")
        eag, _ = _engine_run(weighted_graph, weighted_partition, "eager")
        assert eag.global_iters < gen.global_iters
