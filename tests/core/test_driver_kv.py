"""Tests for the record-at-a-time engine backend under IterationLoop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.pagerank import PageRankKVSpec
from repro.cluster import SimCluster
from repro.core import DriverConfig, EngineBackend, IterationLoop
from repro.engine import MapReduceRuntime
from repro.graph import multilevel_partition, preferential_attachment


def run_kv(spec, config, **backend_kwargs):
    return IterationLoop(EngineBackend(spec, **backend_kwargs), config).run()


@pytest.fixture(scope="module")
def kv_setup():
    g = preferential_attachment(200, num_conn=2, locality_prob=0.9,
                                community_mean=25, seed=11)
    part = multilevel_partition(g, 3, seed=0)
    return g, part


class TestKvDriver:
    def test_history_recorded(self, kv_setup):
        g, part = kv_setup
        res = run_kv(PageRankKVSpec(g, part),
                     DriverConfig(mode="eager"))
        assert len(res.history) == res.global_iters
        assert all(r.shuffle_bytes > 0 for r in res.history)
        assert res.history[-1].residual < 1e-5

    def test_local_iters_recorded_per_partition(self, kv_setup):
        # one entry per partition (block-path-compatible shape), not a
        # 1-tuple of the aggregate counter
        g, part = kv_setup
        spec = PageRankKVSpec(g, part)
        res = run_kv(spec, DriverConfig(mode="eager"))
        for rec in res.history:
            assert len(rec.local_iters) == spec.num_partitions()
            assert all(li >= 1 for li in rec.local_iters)
        # total_local_iters still sums over partitions and rounds
        assert res.total_local_iters == sum(
            sum(r.local_iters) for r in res.history)
        # eager mode really does iterate locally: some round has a
        # partition doing more than one local step
        assert any(max(r.local_iters) > 1 for r in res.history)

    def test_general_mode_one_local_iter_per_partition(self, kv_setup):
        g, part = kv_setup
        res = run_kv(PageRankKVSpec(g, part),
                     DriverConfig(mode="general",
                                  max_global_iters=3))
        for rec in res.history:
            assert rec.local_iters == (1, 1, 1)

    def test_each_round_charges_its_whole_shuffle(self, kv_setup):
        """A round's shuffle is priced in full after its map phase (no
        overlap with the map phase hides any of it)."""
        g, part = kv_setup
        cl = SimCluster()
        rt = MapReduceRuntime("serial", cluster=cl)
        res = run_kv(PageRankKVSpec(g, part),
                     DriverConfig(mode="eager"), runtime=rt)
        phases = cl.trace.phases()
        for r in res.history:
            assert phases[f"iter{r.iteration}:shuffle"] == pytest.approx(
                cl.cost_model.shuffle_seconds(r.shuffle_bytes))

    def test_supplied_runtime_kept_open_with_one_pool(self, kv_setup):
        g, part = kv_setup
        rt = MapReduceRuntime("threads", workers=2)
        res = run_kv(PageRankKVSpec(g, part),
                     DriverConfig(mode="eager"), runtime=rt)
        assert res.converged
        # the driver reused (and did not close) the caller's runtime
        assert rt.pool is not None
        pool = rt.pool
        run_kv(PageRankKVSpec(g, part),
               DriverConfig(mode="eager"), runtime=rt)
        assert rt.pool is pool
        rt.close()

    def test_history_kept_when_capped(self, kv_setup):
        g, part = kv_setup
        res = run_kv(PageRankKVSpec(g, part),
                     DriverConfig(mode="general", max_global_iters=2))
        assert not res.converged
        assert [r.iteration for r in res.history] == [0, 1]

    def test_residuals_eventually_below_tol(self, kv_setup):
        g, part = kv_setup
        res = run_kv(PageRankKVSpec(g, part),
                     DriverConfig(mode="eager"))
        assert res.converged
        rs = res.residuals
        assert rs[0] > rs[-1]

    def test_sim_time_accumulates_on_cluster(self, kv_setup):
        g, part = kv_setup
        cl = SimCluster()
        rt = MapReduceRuntime("serial", cluster=cl)
        res = run_kv(PageRankKVSpec(g, part),
                     DriverConfig(mode="eager"), runtime=rt)
        assert res.sim_time == pytest.approx(cl.clock)
        assert res.sim_time > 0

    def test_max_global_iters_cap(self, kv_setup):
        g, part = kv_setup
        res = run_kv(PageRankKVSpec(g, part),
                     DriverConfig(mode="general", max_global_iters=2))
        assert res.global_iters == 2
        assert not res.converged

    def test_num_reducers_configurable(self, kv_setup):
        g, part = kv_setup
        a = run_kv(PageRankKVSpec(g, part),
                   DriverConfig(mode="eager"), num_reducers=2)
        b = run_kv(PageRankKVSpec(g, part),
                   DriverConfig(mode="eager"), num_reducers=8)
        # reducer count is an execution detail: same results
        ra = np.array([a.state[u][0] for u in range(g.num_nodes)])
        rb = np.array([b.state[u][0] for u in range(g.num_nodes)])
        assert np.allclose(ra, rb)
        assert a.global_iters == b.global_iters

    def test_on_global_iteration_hook(self, kv_setup):
        g, part = kv_setup
        calls = []

        class Hooked(PageRankKVSpec):
            def on_global_iteration(self, iteration, state):
                calls.append(iteration)
                return None

        res = run_kv(Hooked(g, part), DriverConfig(mode="eager"))
        assert calls == list(range(res.global_iters))

    def test_hook_can_replace_state(self, kv_setup):
        g, part = kv_setup

        class Resetting(PageRankKVSpec):
            def on_global_iteration(self, iteration, state):
                if iteration == 0:
                    # returning a new state object must be honoured
                    return dict(state)
                return None

        res = run_kv(Resetting(g, part), DriverConfig(mode="eager"))
        assert res.converged
