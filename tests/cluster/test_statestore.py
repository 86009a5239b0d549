"""Tests for the partitioned StateStore subsystem (§VIII state path).

Pins the refactor's load-bearing guarantees:

* **Charge equivalence** — with uniform partitions and a single tablet,
  the partitioned charging reproduces the historical scalar
  ``charge_state_roundtrip`` numbers charge-for-charge (both backends,
  unit-level and end-to-end through an IterationLoop run).
* **Shape equivalence** — kv/block/hierarchical backends all report the
  same per-partition byte shape (one entry per partition, every round).
* **Skew** — a skewed byte vector's round time is strictly dominated by
  the hottest tablet, and more tablets shrink it.
* **Sharing** — a session's jobs charge one store instance; slot shares
  scale bandwidth-bound charges (the shuffle/DFS slot-share fix).
* **Spellings** — ``DriverConfig.state_store`` takes ``"dfs"``, an
  instance or a factory; the removed ``"online"`` string is rejected.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.pagerank import PageRankBlockSpec, PageRankKVSpec
from repro.apps.sssp import SsspBlockSpec
from repro.cluster import (
    DFSStateStore,
    EC2_DEFAULTS,
    OnlineStateStore,
    OnlineStoreModel,
    RoundAccountant,
    SimCluster,
    StateStore,
    even_split,
    resolve_state_store,
    scaled_model,
)
from repro.cluster.costmodel import ONLINE_STORE_MODEL
from repro.core import (
    BlockBackend,
    DriverConfig,
    EngineBackend,
    HierarchicalBackend,
    IterationLoop,
    Session,
    make_racks,
)
from repro.graph import (
    attach_random_weights,
    multilevel_partition,
    preferential_attachment,
)


@pytest.fixture(scope="module")
def workload():
    g = preferential_attachment(300, num_conn=3, locality_prob=0.92,
                                community_mean=40, seed=7)
    part = multilevel_partition(g, 4, seed=0)
    return g, part


# ----------------------------------------------------------------------
# Helpers / unit level
# ----------------------------------------------------------------------

def tablet_load(store, partition_bytes):
    """Per-tablet bytes one partition byte vector puts on the store's
    live tablet map (no ledger or profile moves)."""
    out = [0.0] * store.num_tablets
    for t, b in store._load(partition_bytes, note=False).items():
        out[t] = b
    return out


class TestEvenSplit:
    def test_preserves_total_exactly(self):
        for total, parts in ((0, 3), (10, 3), (1 << 20, 7), (5, 8)):
            shares = even_split(total, parts)
            assert len(shares) == parts
            assert sum(shares) == total
            assert max(shares) - min(shares) <= 1

    def test_edge_cases(self):
        assert even_split(100, 0) == ()
        with pytest.raises(ValueError):
            even_split(-1, 2)
        with pytest.raises(ValueError):
            even_split(1, -1)


class TestDFSStateStore:
    def test_matches_legacy_scalar_charge(self):
        """Charge-for-charge: any split summing to the old scalar."""
        cm = EC2_DEFAULTS
        store = DFSStateStore()
        total = 1 << 20
        legacy = cm.dfs_write_seconds(total) + cm.dfs_read_seconds(total)
        for pb in ((total,), even_split(total, 4), (total - 5, 5)):
            assert store.round_trip(pb, cost_model=cm) == pytest.approx(legacy)

    def test_durable_no_checkpoint(self):
        store = DFSStateStore()
        assert store.durable
        assert store.checkpoint((1 << 20,), cost_model=EC2_DEFAULTS) == 0.0

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError):
            DFSStateStore().round_trip((-1, 5), cost_model=EC2_DEFAULTS)


class TestReuseAcrossClusters:
    """A store keeps no cluster: every charge is priced by the cluster
    that makes it, whichever cluster charged the store before."""

    #: Four partitions of 1 MB: one round trip plus the due checkpoint.
    STATE = (1 << 20,) * 4

    def _charge(self, store, cost_model):
        cluster = SimCluster(cost_model=cost_model)
        acct = RoundAccountant(cluster, DriverConfig(
            mode="eager", state_store=store, checkpoint_every=1))
        return acct.charge_state_tail(iteration=0,
                                      state_partition_bytes=self.STATE,
                                      label="iter0")

    @pytest.mark.parametrize("make", [DFSStateStore,
                                      lambda: OnlineStateStore(4)],
                             ids=["dfs", "online"])
    def test_each_charge_uses_the_charging_cluster(self, make):
        costly = scaled_model(EC2_DEFAULTS, overhead_scale=10.0)
        store = make()
        cheap = self._charge(store, EC2_DEFAULTS)
        again = self._charge(store, costly)
        assert again == self._charge(make(), costly) > cheap
        assert self._charge(store, EC2_DEFAULTS) == cheap


class TestRejectedRoundTrip:
    """A byte vector with a negative entry is refused before the store
    counts a round, so ``rounds`` and the round stamps on split and merge
    events only count round trips that were served."""

    @pytest.mark.parametrize("make", [lambda: OnlineStateStore(2),
                                      DFSStateStore], ids=["online", "dfs"])
    def test_a_refused_vector_counts_no_round(self, make):
        store = make()
        store.round_trip([100.0, 50.0], cost_model=EC2_DEFAULTS)
        with pytest.raises(ValueError):
            store.round_trip([100.0, -1.0], cost_model=EC2_DEFAULTS)
        assert store.rounds == 1

    def test_a_refused_vector_splits_nothing(self):
        store = OnlineStateStore(2, split_threshold=1000)
        store.round_trip((600, 200), cost_model=EC2_DEFAULTS)  # tablet 0: 1200
        with pytest.raises(ValueError):
            store.round_trip((600, -200), cost_model=EC2_DEFAULTS)
        assert store.split_events == [] and store.num_tablets == 2
        store.round_trip((600, 200), cost_model=EC2_DEFAULTS)
        assert [e[3] for e in store.split_events] == [2]


class TestOnlineStateStoreSharding:
    def test_single_tablet_matches_legacy_scalar(self):
        model = ONLINE_STORE_MODEL
        store = OnlineStateStore(num_tablets=1)
        total = 1 << 20
        for pb in ((total,), even_split(total, 4)):
            assert store.round_trip(pb, cost_model=EC2_DEFAULTS) == pytest.approx(
                model.roundtrip_seconds(total))

    def test_uniform_bytes_balance_exactly(self):
        store = OnlineStateStore(num_tablets=4)
        tb = tablet_load(store, [100] * 8)
        assert tb == pytest.approx([200.0] * 4)

    def test_key_ranges_shard_skew(self):
        # partition 0 is hot: with 2 tablets its whole range lands on
        # tablet 0; with 8 tablets it spreads over tablets 0-1.
        pb = [800, 0, 0, 0]
        t2 = tablet_load(OnlineStateStore(num_tablets=2), pb)
        assert t2 == pytest.approx([800.0, 0.0])
        t8 = tablet_load(OnlineStateStore(num_tablets=8), pb)
        assert t8 == pytest.approx([400.0, 400.0] + [0.0] * 6)

    def test_more_tablets_speed_up_uniform_rounds(self):
        pb = even_split(1 << 24, 8)
        t1 = OnlineStateStore(1).round_trip(pb, cost_model=EC2_DEFAULTS)
        t8 = OnlineStateStore(8).round_trip(pb, cost_model=EC2_DEFAULTS)
        assert t8 < t1  # tablets serve in parallel

    def test_round_time_strictly_dominated_by_hottest_tablet(self):
        store = OnlineStateStore(num_tablets=4)
        pb = [512 << 20, 1 << 10, 1 << 10, 1 << 10]  # hot partition 0
        t = store.round_trip(pb, cost_model=EC2_DEFAULTS)
        per_tablet = store.last_round_tablet_seconds
        assert t == pytest.approx(max(per_tablet))
        assert max(per_tablet) > 10 * sorted(per_tablet)[-2]

    def test_skew_slower_than_uniform_same_total(self):
        total = 1 << 24
        uniform = OnlineStateStore(4).round_trip(
            even_split(total, 4), cost_model=EC2_DEFAULTS)
        skewed = OnlineStateStore(4).round_trip(
            (total - 300, 100, 100, 100), cost_model=EC2_DEFAULTS)
        assert skewed > uniform

    def test_stats_accumulate_and_imbalance(self):
        store = OnlineStateStore(num_tablets=2)
        assert store.imbalance() == 1.0
        store.round_trip((600, 200), cost_model=EC2_DEFAULTS)
        assert store.rounds == 1
        assert store.tablet_bytes == [1200, 400]  # write + read per tablet
        assert store.imbalance() == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineStateStore(num_tablets=0)
        with pytest.raises(ValueError):
            OnlineStateStore(2).round_trip((-5,), cost_model=EC2_DEFAULTS)

    def test_checkpoint_prices_full_replicated_write(self):
        store = OnlineStateStore(2)
        pb = (1 << 20, 1 << 10)
        assert not store.durable
        assert store.checkpoint(pb, cost_model=EC2_DEFAULTS) == pytest.approx(
            EC2_DEFAULTS.dfs_write_seconds(sum(pb)))


class TestPublishConsume:
    """The no-barrier publish/consume path (AsyncBackend's charges)."""

    def test_publish_prices_like_one_partition_write_round(self):
        a = OnlineStateStore(num_tablets=4)
        b = OnlineStateStore(num_tablets=4)
        nbytes = 1 << 20
        vec = [0.0, float(nbytes), 0.0, 0.0]
        assert a.publish(1, nbytes, version=1, num_partitions=4) == \
            pytest.approx(b.write_round(vec, cost_model=EC2_DEFAULTS))
        assert a.tablet_bytes == b.tablet_bytes == [0, nbytes, 0, 0]
        assert a.versions == {1: 1}

    def test_consume_prices_like_read_round(self):
        a = OnlineStateStore(num_tablets=4)
        b = OnlineStateStore(num_tablets=4)
        b.last_round_tablet_seconds = [0.0] * 4
        pb = (1 << 20, 0, 1 << 10, 0)
        assert a.consume(pb) == pytest.approx(b.read_round(pb, cost_model=EC2_DEFAULTS))
        assert a.tablet_bytes == b.tablet_bytes
        assert sum(a.tablet_bytes) == sum(pb)

    def test_version_monotonicity_enforced(self):
        store = OnlineStateStore(num_tablets=2)
        store.publish(0, 100, version=3, num_partitions=2)
        # Same version republished (idempotent retry) is fine ...
        store.publish(0, 100, version=3, num_partitions=2)
        # ... as is skipping forward; going backwards is not.
        store.publish(0, 100, version=5, num_partitions=2)
        with pytest.raises(ValueError, match="backwards"):
            store.publish(0, 100, version=3, num_partitions=2)
        assert store.versions[0] == 5

    def test_negative_publish_bytes_rejected(self):
        with pytest.raises(ValueError):
            OnlineStateStore(2).publish(0, -1, version=1, num_partitions=2)

    def test_consume_loads_only_the_read_slices_tablets(self):
        store = OnlineStateStore(num_tablets=4)
        for p in range(2):
            for v in (1, 2, 3):
                store.publish(p, 256, version=v, num_partitions=2)
        published = list(store.tablet_bytes)
        # partition 0's key range spans tablets 0-1 of 4
        assert store.consume((512, 0)) > 0
        assert [b - a for a, b in zip(published, store.tablet_bytes)] \
            == [256, 256, 0, 0]
        # A read moves no version: the ledger is the publishers'.
        assert store.versions == {0: 3, 1: 3}
        # Zero-byte slices are no reads: free, and no tablet is touched.
        before = list(store.tablet_bytes)
        assert store.consume((0, 0)) == 0.0
        assert store.tablet_bytes == before


class TestResolveStateStore:
    def test_strings_map_to_equivalent_backends(self):
        assert isinstance(resolve_state_store("dfs"), DFSStateStore)
        with pytest.raises(ValueError, match="state_store"):
            resolve_state_store("online")  # spelling removed

    def test_instances_and_factories_pass_through(self):
        inst = OnlineStateStore(4)
        assert resolve_state_store(inst) is inst
        made = resolve_state_store(lambda: OnlineStateStore(2))
        assert isinstance(made, OnlineStateStore) and made.num_tablets == 2

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            resolve_state_store("tape")
        with pytest.raises(TypeError):
            resolve_state_store(42)
        with pytest.raises(TypeError):
            resolve_state_store(lambda: "not a store")


# ----------------------------------------------------------------------
# End-to-end charge equivalence (the pinned acceptance criterion)
# ----------------------------------------------------------------------

def _state_events(cluster):
    return [e for e in cluster.trace.events if e.phase.endswith(":state")]


class TestChargeEquivalence:
    """With uniform partitions and one tablet the partitioned charging
    reproduces the old scalar ``state_round_trip`` numbers exactly."""

    def _run(self, workload, store_spec):
        g, part = workload
        cl = SimCluster()
        cfg = DriverConfig(mode="eager", state_store=store_spec,
                           checkpoint_every=None)
        res = IterationLoop(
            BlockBackend(PageRankBlockSpec(g, part), cluster=cl), cfg).run()
        return res, cl

    def test_dfs_store_reproduces_scalar_charges(self, workload):
        g, part = workload
        res, cl = self._run(workload, DFSStateStore())
        nbytes = g.num_nodes * 8  # the full rank vector, every round
        expected = (EC2_DEFAULTS.dfs_write_seconds(nbytes)
                    + EC2_DEFAULTS.dfs_read_seconds(nbytes))
        events = _state_events(cl)
        assert len(events) == res.global_iters
        for e in events:
            assert e.end - e.start == pytest.approx(expected)
        # and the threaded per-partition vector sums to the old scalar
        for r in res.history:
            assert sum(r.state_partition_bytes) == nbytes
            assert len(r.state_partition_bytes) == part.k

    def test_single_tablet_online_reproduces_scalar_charges(self, workload):
        g, part = workload
        res, cl = self._run(workload, OnlineStateStore(num_tablets=1))
        nbytes = g.num_nodes * 8
        expected = ONLINE_STORE_MODEL.roundtrip_seconds(nbytes)
        for e in _state_events(cl):
            assert e.end - e.start == pytest.approx(expected)

    @pytest.mark.parametrize("legacy,modern", [("dfs", DFSStateStore)])
    def test_legacy_strings_equal_modern_instances(self, workload,
                                                   legacy, modern):
        old, _ = self._run(workload, legacy)
        new, _ = self._run(workload, modern())
        assert old.global_iters == new.global_iters
        assert old.sim_time == pytest.approx(new.sim_time)
        assert [r.sim_seconds for r in old.history] == pytest.approx(
            [r.sim_seconds for r in new.history])

    def test_checkpoints_unchanged_through_store(self, workload):
        res, cl = self._run(workload, DFSStateStore())
        g, part = workload
        cfg = DriverConfig(mode="eager",
                           state_store=OnlineStateStore(num_tablets=1),
                           checkpoint_every=2)
        ckpt_cl = SimCluster()
        IterationLoop(BlockBackend(PageRankBlockSpec(g, part),
                                   cluster=ckpt_cl), cfg).run()
        ckpts = [e for e in ckpt_cl.trace.events
                 if e.phase.endswith(":checkpoint")]
        assert ckpts
        nbytes = g.num_nodes * 8
        for e in ckpts:
            assert e.end - e.start == pytest.approx(
                EC2_DEFAULTS.dfs_write_seconds(nbytes))


class TestBackendShapeEquivalence:
    """kv / block / hierarchical backends all report the same
    per-partition byte shape: one entry per partition, every round."""

    def test_all_backends_same_shape(self, workload):
        g, part = workload
        cfg = DriverConfig(mode="eager")
        block = IterationLoop(
            BlockBackend(PageRankBlockSpec(g, part), cluster=SimCluster()),
            cfg).run()
        hier = IterationLoop(
            HierarchicalBackend(PageRankBlockSpec(g, part),
                                make_racks(part.k, 2),
                                inner_rounds=1,
                                cluster=SimCluster()), cfg).run()
        kv = IterationLoop(
            EngineBackend(PageRankKVSpec(g, part), num_reducers=2),
            DriverConfig(mode="eager", max_global_iters=3)).run()
        for res in (block, hier, kv):
            for r in res.history:
                assert len(r.state_partition_bytes) == part.k
                assert all(b >= 0 for b in r.state_partition_bytes)
        # hierarchy with one inner round is the block path, byte for byte
        assert [r.state_partition_bytes for r in hier.history] == \
               [r.state_partition_bytes for r in block.history]

    def test_engine_path_fires_checkpoints_like_block_path(self, workload):
        """The kv path charges the non-durable store's periodic
        checkpoint through the same accountant tail as the block path
        (the pre-fix engine path silently skipped it)."""
        g, part = workload
        cl = SimCluster()
        from repro.engine import MapReduceRuntime

        cfg = DriverConfig(mode="eager",
                           state_store=OnlineStateStore(num_tablets=1),
                           checkpoint_every=2, max_global_iters=4)
        with MapReduceRuntime("serial", cluster=cl) as rt:
            res = IterationLoop(
                EngineBackend(PageRankKVSpec(g, part), runtime=rt,
                              num_reducers=2), cfg).run()
        ckpts = [e for e in cl.trace.events
                 if e.phase.endswith(":checkpoint")]
        assert len(ckpts) == res.global_iters // 2

    def test_frontier_apps_report_skewed_updates(self, workload):
        g, _ = workload
        wg = attach_random_weights(g, low=1.0, high=10.0, seed=11)
        wpart = multilevel_partition(wg, 4, seed=0)
        res = IterationLoop(
            BlockBackend(SsspBlockSpec(wg, wpart, source=0),
                         cluster=SimCluster()),
            DriverConfig(mode="eager")).run()
        vectors = [r.state_partition_bytes for r in res.history]
        # frontier-driven: the update volume varies across partitions
        # and across rounds (unlike the dense pagerank profile)
        assert any(len(set(v)) > 1 for v in vectors)
        # the final round's wave has receded: fewer bytes than the first
        assert sum(vectors[-1]) < sum(vectors[0])


class TestDueCheckpoint:
    """One rule for every backend: a non-durable store checkpoints at
    the end of each ``checkpoint_every``-round period, a durable one
    never."""

    def _due(self, store, checkpoint_every):
        cl = SimCluster()
        acct = RoundAccountant(cl, DriverConfig(
            mode="eager", checkpoint_every=checkpoint_every),
            state_store=store)
        return [it for it in range(9)
                if acct.charge_due_checkpoint((1 << 20,), iteration=it,
                                              label=f"iter{it}:checkpoint")]

    def test_online_store_checkpoints_each_period(self):
        assert self._due(OnlineStateStore(1), 3) == [2, 5, 8]
        assert self._due(OnlineStateStore(1), None) == []

    def test_durable_store_never_checkpoints(self):
        assert self._due(DFSStateStore(), 3) == []


# ----------------------------------------------------------------------
# Slot-share scaling (the ROADMAP shuffle/DFS gap)
# ----------------------------------------------------------------------

class TestSlotShareScaling:
    def test_bandwidth_charges_scale_with_share(self):
        def charges(branches):
            # the charges run in the first of ``branches`` concurrent
            # branches, so on 1/branches of the cluster
            cl = SimCluster()
            acct = RoundAccountant(cl, DriverConfig(mode="eager"))
            out = []
            cl.concurrently([lambda: out.extend((
                acct.charge_shuffle(16 << 20),
                acct.charge_dfs_roundtrip(16 << 20),
                acct.charge_state_round((16 << 20,))))]
                + [lambda: None] * (branches - 1))
            return out

        full = charges(1)
        half = charges(2)
        for f, h in zip(full, half):
            assert h > f
        # the bandwidth term exactly doubles (latency terms do not)
        cm = EC2_DEFAULTS
        assert half[0] - full[0] == pytest.approx(
            (16 << 20) / cm.shuffle_bandwidth_bps)

    def test_share_validation(self):
        with pytest.raises(ValueError):
            EC2_DEFAULTS.shuffle_seconds(1.0, share=0.0)
        with pytest.raises(ValueError):
            EC2_DEFAULTS.dfs_write_seconds(1.0, share=1.5)
        with pytest.raises(ValueError):
            OnlineStoreModel().write_seconds(1.0, share=-0.1)

    def test_fair_share_session_pays_contended_bandwidth(self, workload):
        """Two concurrent fair-share jobs see half the network, so each
        round (shuffle + state incl.) costs more than a solo run's."""
        from repro.apps import pagerank_spec

        g, part = workload
        solo = IterationLoop(
            BlockBackend(PageRankBlockSpec(g, part), cluster=SimCluster()),
            DriverConfig(mode="eager")).run()
        session = Session(cluster=SimCluster(), policy="fair")
        h1 = session.submit(pagerank_spec(g, part))
        session.submit(pagerank_spec(g, part))
        session.run()
        for solo_r, fair_r in zip(solo.history, h1.result.history):
            # identical math, strictly costlier rounds under contention
            assert fair_r.residual == solo_r.residual
            if h1.round_shares[fair_r.iteration].slot_share < 1.0:
                assert fair_r.sim_seconds > solo_r.sim_seconds


# ----------------------------------------------------------------------
# Session-level sharing
# ----------------------------------------------------------------------

class TestSessionSharedStore:
    def test_default_config_jobs_share_one_store(self, workload):
        from repro.apps import pagerank_spec

        g, part = workload
        session = Session(cluster=SimCluster(), policy="rr")
        h1 = session.submit(pagerank_spec(g, part))
        h2 = session.submit(pagerank_spec(g, part))
        assert h1.accountant.state_store is h2.accountant.state_store
        session.run()
        store = h1.accountant.state_store
        assert store.rounds == h1.rounds + h2.rounds

    def test_explicit_session_store_contends_on_tablets(self, workload):
        from repro.apps import pagerank_spec, sssp_spec

        g, part = workload
        wg = attach_random_weights(g, low=1.0, high=10.0, seed=11)
        wpart = multilevel_partition(wg, 4, seed=0)
        store = OnlineStateStore(num_tablets=4)
        session = Session(cluster=SimCluster(), policy="fair",
                          state_store=store)
        h1 = session.submit(pagerank_spec(g, part))
        h2 = session.submit(sssp_spec(wg, wpart, source=0))
        session.run()
        # both jobs' state flowed through the SAME tablets
        assert h1.accountant.state_store is store
        assert h2.accountant.state_store is store
        assert store.rounds == h1.rounds + h2.rounds
        assert sum(store.tablet_bytes) > 0

    def test_config_instance_wins_over_session_cache(self, workload):
        g, part = workload
        private = OnlineStateStore(num_tablets=2)
        session = Session(cluster=SimCluster())
        h = session.submit(
            BlockBackend(PageRankBlockSpec(g, part)),
            DriverConfig(mode="eager", state_store=private,
                         max_global_iters=2))
        session.run()
        assert h.accountant.state_store is private
        assert private.rounds == h.rounds

    def test_session_store_type_checked(self):
        with pytest.raises(TypeError, match="StateStore"):
            Session(state_store="online")


# ----------------------------------------------------------------------
# state_store spellings
# ----------------------------------------------------------------------

class TestDeprecation:
    def test_online_string_rejected(self):
        with pytest.raises(ValueError, match="state_store"):
            DriverConfig(state_store="online")

    def test_dfs_string_stays_silent(self):
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            DriverConfig(state_store="dfs")

    def test_config_validation(self):
        with pytest.raises(ValueError, match="state_store"):
            DriverConfig(state_store="tape")
        with pytest.raises(ValueError, match="state_store"):
            DriverConfig(state_store=42)
        # instances and factories are accepted
        DriverConfig(state_store=DFSStateStore())
        DriverConfig(state_store=lambda: OnlineStateStore(4))

    def test_state_store_is_a_statestore(self):
        assert isinstance(DFSStateStore(), StateStore)
        assert isinstance(OnlineStateStore(), StateStore)


class TestAutoSplit:
    """Load-triggered tablet splitting: hot key ranges subdivide mid-run
    while the versioned tablet map keeps every ledger consistent."""

    #: 8 partitions, everything concentrated in partition 0's key range.
    SKEW = [8000.0, 10, 10, 10, 10, 10, 10, 10]

    def test_validation(self):
        with pytest.raises(ValueError, match="split_threshold"):
            OnlineStateStore(4, split_threshold=0)
        with pytest.raises(ValueError, match="max_tablets"):
            OnlineStateStore(8, split_threshold=100, max_tablets=4)

    def test_no_threshold_never_splits(self):
        store = OnlineStateStore(4)
        for _ in range(5):
            store.round_trip(self.SKEW, cost_model=EC2_DEFAULTS)
        assert store.tablet_map_version == 0
        assert store.split_events == []
        assert store.num_tablets == 4

    def test_hot_tablet_splits_and_map_stays_consistent(self):
        store = OnlineStateStore(4, split_threshold=4000)
        for _ in range(4):
            store.round_trip(self.SKEW, cost_model=EC2_DEFAULTS)
        assert store.num_tablets > 4
        assert store.tablet_map_version == len(store.split_events)
        # boundaries stay a strictly increasing 0..1 cover, and every
        # per-tablet ledger tracks the new map's width
        assert store.boundaries[0] == 0.0 and store.boundaries[-1] == 1.0
        assert all(a < b for a, b in
                   zip(store.boundaries, store.boundaries[1:]))
        assert len(store.boundaries) == store.num_tablets + 1
        assert len(store.tablet_bytes) == store.num_tablets
        assert len(store.last_round_tablet_seconds) == store.num_tablets
        for version, tablet, midpoint, rnd in store.split_events:
            assert 0.0 < midpoint < 1.0

    def test_max_tablets_caps_growth(self):
        store = OnlineStateStore(2, split_threshold=100, max_tablets=8)
        for _ in range(10):
            store.round_trip(self.SKEW, cost_model=EC2_DEFAULTS)
        assert store.num_tablets == 8

    def test_sharding_conserves_bytes_across_splits(self):
        store = OnlineStateStore(4, split_threshold=2000)
        for _ in range(6):
            store.round_trip(self.SKEW, cost_model=EC2_DEFAULTS)
        assert store.num_tablets > 4
        assert sum(tablet_load(store, self.SKEW)) == pytest.approx(
            sum(self.SKEW))

    def test_splitting_shrinks_the_hot_round_time(self):
        """Subdividing the hot range spreads its bytes over more
        tablets, so the slowest-tablet round time drops."""
        frozen = OnlineStateStore(4)
        split = OnlineStateStore(4, split_threshold=4000)
        for _ in range(6):
            t_frozen = frozen.round_trip(self.SKEW, cost_model=EC2_DEFAULTS)
            t_split = split.round_trip(self.SKEW, cost_model=EC2_DEFAULTS)
        assert split.num_tablets > frozen.num_tablets
        assert t_split < t_frozen

    def test_uniform_load_unaffected_by_headroom_threshold(self):
        """With a threshold the uniform load never reaches, charges are
        identical to the never-splitting store."""
        uniform = [1000.0] * 8
        plain = OnlineStateStore(4)
        armed = OnlineStateStore(4, split_threshold=10**9)
        for _ in range(3):
            assert armed.round_trip(uniform, cost_model=EC2_DEFAULTS) == pytest.approx(
                plain.round_trip(uniform, cost_model=EC2_DEFAULTS))
        assert armed.tablet_map_version == 0

    def test_publish_consume_ledgers_survive_splits(self):
        """The async path: version ledgers are partition-keyed, so a
        split mid-stream loses no version, and the per-tablet byte
        ledger keeps every byte across the remap."""
        store = OnlineStateStore(2, split_threshold=3000, max_tablets=16)
        for v in range(1, 5):
            for p in range(4):
                store.publish(p, 2000 if p == 0 else 50, version=v,
                              num_partitions=4)
        assert store.num_tablets > 2
        assert store.versions == {p: 4 for p in range(4)}
        # a read against the *new* map lands on the hot partition's (now
        # multiple) tablets, and only there
        load = tablet_load(store, (1000, 0, 0, 0))
        assert sum(load) == pytest.approx(1000)
        assert all(store.boundaries[t] < 0.25
                   for t, b in enumerate(load) if b)
        before = sum(store.tablet_bytes)
        store.consume((1000, 0, 0, 0))
        assert sum(store.tablet_bytes) == pytest.approx(before + 1000, abs=4)
        assert store.versions == {p: 4 for p in range(4)}
        # publishing after the split keeps versions monotone
        store.publish(0, 10, version=5, num_partitions=4)
        assert store.versions[0] == 5

    def test_split_store_round_accounting_through_accountant(self):
        """The round's facts count the splits the store made since the
        round opened, for RoundRecord consumption."""
        cluster = SimCluster()
        store = OnlineStateStore(2, split_threshold=3000)
        acct = RoundAccountant(cluster, DriverConfig(), job="t",
                               state_store=store)
        acct.begin_round(0)
        assert acct.round_facts()["tablet_splits"] == 0
        for _ in range(4):
            acct.charge_state_round(self.SKEW)
        assert acct.round_facts()["tablet_splits"] \
            == len(store.split_events) > 0
        # the next round starts from the store's count at its opening
        acct.begin_round(1)
        assert acct.round_facts()["tablet_splits"] == 0
        assert store.tablet_map_version == len(store.split_events)


class TestTabletMerge:
    """Load-triggered tablet merging: adjacent cold ranges collapse so a
    receding workload doesn't strand a wide tablet map."""

    def test_validation(self):
        with pytest.raises(ValueError, match="merge_threshold"):
            OnlineStateStore(4, merge_threshold=0)
        with pytest.raises(ValueError, match="oscillate"):
            OnlineStateStore(4, split_threshold=100, merge_threshold=200)

    def test_unobserved_map_never_merges(self):
        """The cold-start guard: a map that has served nothing is
        unobserved, not cold — the first round must see the configured
        tablet count."""
        store = OnlineStateStore(8, merge_threshold=10 ** 9)
        store.round_trip([100.0] * 8, cost_model=EC2_DEFAULTS)
        assert store.num_tablets == 8
        assert store.merge_events == []

    def test_cold_run_collapses_in_one_pass(self):
        """A run of adjacent cold tablets merges down at the next round
        boundary, floored at one tablet."""
        store = OnlineStateStore(8, merge_threshold=10 ** 9)
        store.round_trip([100.0] * 8, cost_model=EC2_DEFAULTS)
        store.round_trip([100.0] * 8, cost_model=EC2_DEFAULTS)
        assert store.num_tablets == 1
        assert store.boundaries == [0.0, 1.0]
        assert len(store.merge_events) == 7
        assert store.tablet_map_version == 7
        for version, tablet, removed, rnd in store.merge_events:
            assert 0.0 < removed < 1.0

    def test_partial_merge_keeps_hot_tablet(self):
        """Only the cold tail merges; the hot tablet and its boundaries
        survive untouched."""
        skew = [8000.0] + [10.0] * 7
        store = OnlineStateStore(8, merge_threshold=1000)
        store.round_trip(skew, cost_model=EC2_DEFAULTS)
        store.round_trip(skew, cost_model=EC2_DEFAULTS)
        assert store.num_tablets == 2
        assert store.boundaries[0] == 0.0
        assert store.boundaries[1] == pytest.approx(1 / 8)
        assert store.boundaries[-1] == 1.0

    def test_merge_conserves_ledgers_and_bytes(self):
        skew = [8000.0] + [10.0] * 7
        store = OnlineStateStore(8, merge_threshold=1000)
        store.round_trip(skew, cost_model=EC2_DEFAULTS)
        total_bytes = sum(store.tablet_bytes)
        store.round_trip(skew, cost_model=EC2_DEFAULTS)
        assert store.num_tablets == 2
        assert len(store.tablet_bytes) == 2
        assert len(store.last_round_tablet_seconds) == 2
        # cumulative bytes only grow (merge moved, round added)
        assert sum(store.tablet_bytes) > total_bytes
        assert sum(tablet_load(store, skew)) == pytest.approx(sum(skew))

    def test_merge_absorbs_rows(self):
        """The survivor inherits the absorbed tablets' row bytes: the
        ledger keeps its history across the remap (key ranges are
        disjoint)."""
        store = OnlineStateStore(4, merge_threshold=10 ** 9)
        store.publish(1, 64, version=2, num_partitions=4)
        store.publish(3, 64, version=2, num_partitions=4)
        store.consume((0, 64, 0, 64))
        assert store.tablet_bytes == [0, 128, 0, 128]
        store.round_trip([100.0] * 4, cost_model=EC2_DEFAULTS)
        assert store.num_tablets == 1
        # 256 carried over, plus this round's write and read-back
        assert store.tablet_bytes == [256 + 2 * 400]

    def test_merge_surfaces_through_accountant(self):
        """Merges the accountant's state charges trigger land in the
        store's merge log and map version, not in the round's splits."""
        cluster = SimCluster()
        store = OnlineStateStore(4, merge_threshold=10 ** 9)
        acct = RoundAccountant(cluster, DriverConfig(), job="t",
                               state_store=store)
        acct.begin_round(0)
        for _ in range(3):
            acct.charge_state_round([100.0] * 4)
        assert len(store.merge_events) == store.tablet_map_version == 3
        assert acct.round_facts()["tablet_splits"] == 0


class TestLoadAwareSplitPoint:
    """Bigtable splits where the data says to: the split key is the
    byte-weighted median of the observed load profile, not the range
    midpoint."""

    def test_flat_profile_splits_at_midpoint(self):
        store = OnlineStateStore(1, split_threshold=4000, max_tablets=2)
        store.round_trip([1000.0] * 8, cost_model=EC2_DEFAULTS)
        store.round_trip([1000.0] * 8, cost_model=EC2_DEFAULTS)
        assert store.num_tablets == 2
        assert store.split_events[0][2] == pytest.approx(0.5)

    def test_hot_partition_pulls_split_into_its_range(self):
        """Partition 2 of 8 holds nearly all the bytes, so the weighted
        median lands inside its key range [2/8, 3/8) — not at 0.5."""
        skew = [10.0, 10.0, 8000.0, 10.0, 10.0, 10.0, 10.0, 10.0]
        store = OnlineStateStore(1, split_threshold=4000, max_tablets=2)
        store.round_trip(skew, cost_model=EC2_DEFAULTS)
        store.round_trip(skew, cost_model=EC2_DEFAULTS)
        assert store.num_tablets == 2
        mid = store.split_events[0][2]
        assert 2 / 8 < mid < 3 / 8

    def test_unobserved_range_falls_back_to_midpoint(self):
        store = OnlineStateStore(4)
        assert store._split_point(1) == pytest.approx((0.25 + 0.5) / 2)

    def test_split_point_stays_strictly_inside_range(self):
        """All the mass at the very start of the range: the clamp keeps
        both children non-empty."""
        store = OnlineStateStore(1, split_threshold=100, max_tablets=4)
        store.round_trip([5000.0, 0.0, 0.0, 0.0], cost_model=EC2_DEFAULTS)
        store.round_trip([5000.0, 0.0, 0.0, 0.0], cost_model=EC2_DEFAULTS)
        assert store.num_tablets > 1
        assert all(a < b for a, b in
                   zip(store.boundaries, store.boundaries[1:]))
        for _, _, mid, _ in store.split_events:
            assert 0.0 < mid < 1.0
