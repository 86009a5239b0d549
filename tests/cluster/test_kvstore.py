"""Tests for the online store's cost model (Bigtable substitute, §VIII)
and the cluster's scalar state round-trip charge."""

from __future__ import annotations

import pytest

from repro.cluster import (
    EC2_DEFAULTS,
    OnlineStoreModel,
    SimCluster,
)


class TestOnlineStoreModel:
    def test_defaults_cheaper_than_dfs_roundtrip(self):
        m = OnlineStoreModel()
        for nbytes in (1, 10**4, 10**7):
            dfs = (EC2_DEFAULTS.dfs_write_seconds(nbytes)
                   + EC2_DEFAULTS.dfs_read_seconds(nbytes))
            assert m.roundtrip_seconds(nbytes) < dfs

    def test_latency_floor(self):
        m = OnlineStoreModel(op_latency_seconds=0.1)
        assert m.read_seconds(0) == pytest.approx(0.1)
        assert m.write_seconds(0) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineStoreModel(write_bps=0)
        with pytest.raises(ValueError):
            OnlineStoreModel(op_latency_seconds=-1)
        with pytest.raises(ValueError):
            OnlineStoreModel().read_seconds(-1)


class TestClusterIntegration:
    def test_charge_state_roundtrip_dispatch(self):
        cl = SimCluster()
        t_dfs = cl.charge_state_roundtrip(10**6, store="dfs")
        t_online = cl.charge_state_roundtrip(10**6, store="online")
        assert t_online < t_dfs
        with pytest.raises(ValueError, match="store"):
            cl.charge_state_roundtrip(1, store="carrier-pigeon")

    def test_charge_fixed(self):
        cl = SimCluster()
        cl.charge_fixed("custom", 5.0)
        assert cl.clock == pytest.approx(5.0)
        with pytest.raises(ValueError):
            cl.charge_fixed("bad", -1.0)
