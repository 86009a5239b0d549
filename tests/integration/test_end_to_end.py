"""Cross-module integration tests: full pipelines through real substrates."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.apps import (
    pagerank,
    pagerank_reference,
    sssp,
    sssp_reference,
    wordcount,
)
from repro.apps.pagerank import PageRankKVSpec
from repro.cluster import HPC_DEFAULTS, SimCluster, ec2_nodes
from repro.core import DriverConfig, EngineBackend, IterationLoop
from repro.engine import FaultPlan, MapReduceRuntime
from repro.graph import (
    attach_random_weights,
    multilevel_partition,
    preferential_attachment,
)


@pytest.fixture(scope="module")
def graph():
    return preferential_attachment(250, num_conn=3, locality_prob=0.92,
                                   community_mean=30, seed=3)


@pytest.fixture(scope="module")
def partition(graph):
    return multilevel_partition(graph, 4, seed=0)


class TestSerializationPipeline:
    def test_pagerank_survives_pickle_roundtrip(self, graph, partition):
        # what the process executor ships: the graph and its partition
        # pickled together must run to the same ranks, bit for bit
        g2, p2 = pickle.loads(pickle.dumps((graph, partition)))
        assert p2.graph is g2 and g2.num_nodes == graph.num_nodes
        assert all(np.array_equal(a, b) for a, b in
                   zip(g2.edge_arrays(), graph.edge_arrays()))
        assert np.array_equal(p2.assign, partition.assign)
        a = pagerank(graph, partition, mode="eager")
        b = pagerank(g2, p2, mode="eager")
        assert a.global_iters == b.global_iters
        assert np.array_equal(a.ranks, b.ranks)


class TestCrossExecutorEquivalence:
    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_kv_pagerank_same_across_executors(self, graph, partition, executor):
        spec = PageRankKVSpec(graph, partition)
        rt = MapReduceRuntime(executor, workers=4)
        res = IterationLoop(EngineBackend(spec, runtime=rt),
                            DriverConfig(mode="eager")).run()
        ranks = np.array([res.state[u][0] for u in range(graph.num_nodes)])
        assert np.abs(ranks - pagerank_reference(graph)).max() < 1e-3

    def test_kv_pagerank_with_faults_identical(self, graph, partition):
        def run(**backend_kwargs):
            backend = EngineBackend(PageRankKVSpec(graph, partition),
                                    **backend_kwargs)
            return IterationLoop(backend, DriverConfig(mode="eager")).run()

        clean = run()
        faulty = run(runtime=MapReduceRuntime(
            "serial", fault_plan=FaultPlan(
                scripted={("map", 0): 1, ("map", 1): 2, ("reduce", 0): 1})))
        for u in range(graph.num_nodes):
            assert clean.state[u][0] == pytest.approx(faulty.state[u][0])
        assert clean.global_iters == faulty.global_iters


class TestPlatformSensitivity:
    def test_cloud_gains_exceed_hpc_gains(self, graph, partition):
        # §II: "the performance improvement from algorithmic asynchrony is
        # significantly amplified on distributed platforms"
        def ratio(cost_model):
            gen = pagerank(graph, partition, mode="general",
                           cluster=SimCluster(ec2_nodes(), cost_model))
            eag = pagerank(graph, partition, mode="eager",
                           cluster=SimCluster(ec2_nodes(), cost_model))
            return gen.sim_time / eag.sim_time

        from repro.cluster import EC2_DEFAULTS

        assert ratio(EC2_DEFAULTS) > ratio(HPC_DEFAULTS)

    def test_scalability_larger_cluster_not_slower(self, graph, partition):
        # §VI scalability: more nodes must not increase simulated time
        small = pagerank(graph, partition, mode="eager",
                         cluster=SimCluster(ec2_nodes(2)))
        large = pagerank(graph, partition, mode="eager",
                         cluster=SimCluster(ec2_nodes(16)))
        assert large.sim_time <= small.sim_time + 1e-9


class TestCombinedWorkload:
    def test_pagerank_then_sssp_same_partition(self, graph):
        # one off-line partitioning run serves both applications, as the
        # paper prescribes (§V-B.3: partitioning performed once)
        gw = attach_random_weights(graph, seed=9)
        part = multilevel_partition(gw, 4, seed=0)
        pr = pagerank(gw, part, mode="eager")
        sp = sssp(gw, part, mode="eager")
        assert np.abs(pr.ranks - pagerank_reference(gw)).max() < 1e-3
        assert np.allclose(sp.distances, sssp_reference(gw))

    def test_wordcount_on_simulated_cluster_faulty(self):
        rt = MapReduceRuntime("serial", cluster=SimCluster(),
                              fault_plan=FaultPlan(scripted={
                                  ("map", 1): 1, ("map", 4): 2,
                                  ("reduce", 0): 1}))
        docs = [f"alpha beta gamma doc{i}" for i in range(12)]
        res = wordcount(docs, runtime=rt, splits=6)
        assert res.as_dict()["alpha"] == 12
        assert res.sim_time_total > 0


class TestTraceConsistency:
    def test_cluster_trace_valid_after_full_run(self, graph, partition):
        cl = SimCluster()
        pagerank(graph, partition, mode="eager", cluster=cl)
        cl.trace.check_no_overlap()
        assert cl.trace.makespan() <= cl.clock + 1e-9
        phases = cl.trace.phases()
        assert any("map" in p for p in phases)
        assert any("startup" in p for p in phases)

    def test_utilization_bounded(self, graph, partition):
        cl = SimCluster()
        pagerank(graph, partition, mode="general", cluster=cl)
        assert 0.0 < cl.trace.utilization(cl.total_map_slots) <= 1.0
