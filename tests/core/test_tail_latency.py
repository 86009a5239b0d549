"""Speculation + auto-split through the driver core.

Ties the tail-latency machinery end to end: ``DriverConfig.speculate``
reaches the accountant's phase charges, per-round ``RoundRecord`` deltas
expose backups and tablet splits, and the converged state is untouched
either way (speculation and splitting change *time*, never *values*).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.pagerank import PageRankBlockSpec
from repro.cluster import (
    OnlineStateStore,
    SimCluster,
    ec2_nodes,
)
from repro.core import BlockBackend, DriverConfig, Session
from repro.engine import StragglerPlan
from repro.graph import multilevel_partition, preferential_attachment


@pytest.fixture(scope="module")
def workload():
    g = preferential_attachment(300, num_conn=3, locality_prob=0.92,
                                community_mean=40, seed=7)
    part = multilevel_partition(g, 4, seed=0)
    return g, part


def _straggler_cluster():
    return SimCluster(nodes=ec2_nodes(4),
                      stragglers=StragglerPlan(node_slowdown={0: 4.0}))


def _run(cluster, cfg, workload, **store_kw):
    g, part = workload
    session = Session(cluster=cluster, **store_kw)
    handle = session.submit(BlockBackend(PageRankBlockSpec(g, part)), cfg)
    session.run()
    return handle.result


class TestDriverConfigSpeculate:
    def test_defaults_off(self):
        assert DriverConfig().speculate is False

    def test_accepts_bool(self):
        assert DriverConfig(speculate=True).speculate is True

    @pytest.mark.parametrize("value", ["yes", 1, object()])
    def test_rejects_other_types(self, value):
        with pytest.raises(ValueError, match="speculate"):
            DriverConfig(speculate=value)


class TestRoundRecordStats:
    def test_speculation_stats_surface_per_round(self, workload):
        res = _run(_straggler_cluster(), DriverConfig(speculate=True),
                   workload)
        assert sum(r.backups for r in res.history) >= 1
        assert sum(r.backups_won for r in res.history) >= 1
        assert sum(r.wasted_seconds for r in res.history) > 0.0

    def test_no_speculation_records_zeros(self, workload):
        res = _run(_straggler_cluster(), DriverConfig(), workload)
        assert all(r.backups == 0 and r.backups_won == 0
                   and r.wasted_seconds == 0.0 for r in res.history)
        assert all(r.tablet_splits == 0 for r in res.history)

    def test_values_identical_and_time_reduced(self, workload):
        """Speculation is a pure scheduling change on the simulated
        path: same per-round values and round count, smaller charge."""
        plain = _run(_straggler_cluster(), DriverConfig(), workload)
        spec = _run(_straggler_cluster(), DriverConfig(speculate=True),
                    workload)
        assert np.array_equal(plain.state, spec.state)
        assert len(plain.history) == len(spec.history)
        assert spec.sim_time < plain.sim_time

    def test_tablet_splits_surface_per_round(self, workload):
        store = OnlineStateStore(2, split_threshold=2000)
        res = _run(SimCluster(), DriverConfig(), workload,
                   state_store=store)
        splits = [r.tablet_splits for r in res.history]
        assert sum(splits) == len(store.split_events) > 0
        # each split lands in the round that made it: a block round is
        # one state round trip, and a split logs the store's round count
        assert splits == [sum(1 for e in store.split_events if e[3] == i + 1)
                          for i in range(len(splits))]

    def test_split_and_frozen_stores_converge_identically(self, workload):
        frozen = OnlineStateStore(2)
        splitting = OnlineStateStore(2, split_threshold=2000)
        a = _run(SimCluster(), DriverConfig(), workload, state_store=frozen)
        b = _run(SimCluster(), DriverConfig(), workload,
                 state_store=splitting)
        assert np.array_equal(a.state, b.state)
