"""Tests for the §VIII future-work extensions: hierarchical sync,
granularity autotuning, and the online state store."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.apps.pagerank import PageRankBlockSpec, pagerank_reference
from repro.cluster import SimCluster
from repro.cluster.statestore import OnlineStateStore
from repro.core import (
    BlockBackend,
    DriverConfig,
    HierarchicalBackend,
    IterationLoop,
    autotune_partitions,
    make_racks,
)
from repro.graph import multilevel_partition


def run_block(spec, config, *, cluster=None):
    return IterationLoop(BlockBackend(spec, cluster=cluster), config).run()


def run_hier(spec, config, racks, **backend_kwargs):
    backend = HierarchicalBackend(spec, racks, **backend_kwargs)
    return IterationLoop(backend, config).run()


def one_tablet():
    """Store factory: a fresh single-tablet online store per run."""
    return OnlineStateStore(num_tablets=1)


@pytest.fixture(scope="module")
def setup(request):
    from repro.graph import preferential_attachment

    g = preferential_attachment(800, num_conn=3, locality_prob=0.94,
                                community_mean=60, seed=4)
    part = multilevel_partition(g, 8, seed=0)
    return g, part


class TestMakeRacks:
    def test_contiguous_cover(self):
        racks = make_racks(10, 3)
        assert sorted(p for r in racks for p in r) == list(range(10))
        for rack in racks:
            assert rack == list(range(rack[0], rack[-1] + 1))

    def test_more_racks_than_partitions(self):
        racks = make_racks(2, 5)
        assert len(racks) == 2

    def test_clamp_pins_one_partition_per_rack(self):
        # num_racks > num_partitions clamps to num_partitions (documented
        # in the make_racks docstring): no rack is ever empty, and the
        # result is shorter than requested.
        racks = make_racks(3, 10)
        assert racks == [[0], [1], [2]]
        assert all(rack for rack in racks)
        assert len(make_racks(1, 7)) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            make_racks(0, 2)
        with pytest.raises(ValueError):
            make_racks(5, 0)


class TestHierarchicalDriver:
    def test_same_fixed_point_as_flat(self, setup):
        g, part = setup
        ref = pagerank_reference(g)
        h = run_hier(
            PageRankBlockSpec(g, part), DriverConfig(mode="eager"),
            make_racks(8, 2), inner_rounds=3)
        assert np.abs(np.asarray(h.state) - ref).max() < 1e-3
        assert h.converged

    def test_fewer_global_iterations_than_flat(self, setup):
        g, part = setup
        flat = run_block(PageRankBlockSpec(g, part),
                         DriverConfig(mode="eager"))
        hier = run_hier(
            PageRankBlockSpec(g, part), DriverConfig(mode="eager"),
            make_racks(8, 2), inner_rounds=3)
        assert hier.global_iters < flat.global_iters

    def test_faster_in_sim_time(self, setup):
        g, part = setup
        flat = run_block(PageRankBlockSpec(g, part),
                         DriverConfig(mode="eager"),
                         cluster=SimCluster())
        hier = run_hier(
            PageRankBlockSpec(g, part), DriverConfig(mode="eager"),
            make_racks(8, 2), inner_rounds=3,
            cluster=SimCluster())
        assert hier.sim_time < flat.sim_time

    def test_single_inner_round_close_to_flat_iterates(self, setup):
        g, part = setup
        flat = run_block(PageRankBlockSpec(g, part),
                         DriverConfig(mode="eager"))
        hier = run_hier(
            PageRankBlockSpec(g, part), DriverConfig(mode="eager"),
            make_racks(8, 2), inner_rounds=1)
        # one inner round = plain eager driver (same iterates)
        assert hier.global_iters == flat.global_iters

    def test_rejects_non_scoped_spec(self, census_points):
        from repro.apps import KMeansBlockSpec

        spec = KMeansBlockSpec(census_points, 3, num_partitions=4)
        with pytest.raises(ValueError, match="partition-scoped"):
            run_hier(spec, DriverConfig(mode="eager"),
                     make_racks(4, 2))

    def test_rejects_bad_rack_cover(self, setup):
        g, part = setup
        with pytest.raises(ValueError, match="cover"):
            run_hier(
                PageRankBlockSpec(g, part), DriverConfig(mode="eager"),
                [[0, 1], [2, 3]])  # misses partitions 4..7

    def test_rejects_no_inner_round(self, setup):
        g, part = setup
        with pytest.raises(ValueError, match="inner_rounds"):
            run_hier(PageRankBlockSpec(g, part), DriverConfig(mode="eager"),
                     make_racks(8, 2), inner_rounds=0)


class TestAutotune:
    def test_picks_a_reasonable_candidate(self, setup):
        g, _ = setup

        def factory(k):
            return PageRankBlockSpec(g, multilevel_partition(g, k, seed=0))

        report = autotune_partitions(factory, [2, 8, 64], probe_iters=3)
        assert report.best_k in (2, 8, 64)
        # full runs confirm the tuner's choice is not the worst one
        times = {}
        for k in (2, 8, 64):
            res = run_block(factory(k), DriverConfig(mode="eager"),
                            cluster=SimCluster())
            times[k] = res.sim_time
        worst = max(times, key=times.get)
        assert report.best_k != worst or len(set(times.values())) == 1

    def test_probe_cheaper_than_full_run(self, setup):
        g, part = setup

        def factory(k):
            return PageRankBlockSpec(g, multilevel_partition(g, k, seed=0))

        report = autotune_partitions(factory, [8], probe_iters=3)
        full = run_block(factory(8), DriverConfig(mode="eager"),
                         cluster=SimCluster())
        assert report.probe_seconds < full.sim_time

    def test_ranking_sorted(self, setup):
        g, _ = setup

        def factory(k):
            return PageRankBlockSpec(g, multilevel_partition(g, k, seed=0))

        report = autotune_partitions(factory, [2, 8], probe_iters=2)
        ranked = report.ranking()
        assert ranked[0].predicted_seconds <= ranked[-1].predicted_seconds

    def test_validation(self, setup):
        g, _ = setup

        def factory(k):
            return PageRankBlockSpec(g, multilevel_partition(g, k, seed=0))

        with pytest.raises(ValueError):
            autotune_partitions(factory, [])
        with pytest.raises(ValueError):
            autotune_partitions(factory, [2], probe_iters=1)

    def test_probe_is_a_capped_eager_run(self, setup):
        """A probe is ``probe_iters`` eager rounds on a fresh default
        cluster, extrapolated towards a residual of 1e-5."""
        g, _ = setup

        def factory(k):
            return PageRankBlockSpec(g, multilevel_partition(g, k, seed=0))

        report = autotune_partitions(factory, [8], probe_iters=3)
        run = run_block(factory(8),
                        DriverConfig(mode="eager", max_global_iters=3),
                        cluster=SimCluster())
        [probe] = report.probes
        assert report.probe_seconds == run.sim_time
        assert probe.seconds_per_round == run.sim_time / 3
        assert not run.converged and run.residuals[-1] > 1e-5
        extra = (math.log(1e-5 / run.residuals[-1])
                 / math.log(probe.contraction))
        assert probe.predicted_rounds == 3 + math.ceil(extra)


class TestOnlineStateStore:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            DriverConfig(state_store="tape")
        with pytest.raises(ValueError):
            DriverConfig(checkpoint_every=-1)
        with pytest.raises(ValueError):
            DriverConfig(checkpoint_every=0)  # None disables, not 0
        with pytest.raises(ValueError):
            DriverConfig(checkpoint_every=2.5)
        DriverConfig(checkpoint_every=None)  # the disable spelling

    def test_online_store_cheaper_than_dfs(self, setup):
        g, part = setup
        dfs = run_block(
            PageRankBlockSpec(g, part),
            DriverConfig(mode="eager", state_store="dfs"),
            cluster=SimCluster())
        online = run_block(
            PageRankBlockSpec(g, part),
            DriverConfig(mode="eager", state_store=one_tablet,
                         checkpoint_every=None),
            cluster=SimCluster())
        assert online.global_iters == dfs.global_iters  # same algorithm
        assert online.sim_time < dfs.sim_time

    def test_checkpoints_cost_something(self, setup):
        g, part = setup
        no_ckpt = run_block(
            PageRankBlockSpec(g, part),
            DriverConfig(mode="eager", state_store=one_tablet,
                         checkpoint_every=None),
            cluster=SimCluster())
        ckpt = run_block(
            PageRankBlockSpec(g, part),
            DriverConfig(mode="eager", state_store=one_tablet,
                         checkpoint_every=2),
            cluster=SimCluster())
        assert ckpt.sim_time > no_ckpt.sim_time

    def test_results_identical_across_stores(self, setup):
        g, part = setup
        a = run_block(PageRankBlockSpec(g, part),
                      DriverConfig(mode="eager", state_store="dfs"))
        b = run_block(PageRankBlockSpec(g, part),
                      DriverConfig(mode="eager", state_store=one_tablet))
        assert np.array_equal(np.asarray(a.state), np.asarray(b.state))
