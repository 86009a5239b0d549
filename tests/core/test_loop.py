"""Tests for the unified iteration core (repro.core.loop).

Covers the backend-equivalence guarantees the unification was built to
provide: kv-vs-block round-record shape compatibility, the pinned
charge-for-charge identity of hierarchy-with-``inner_rounds=1`` against
the plain eager block driver (including the combine's ``extra_bytes``
shuffle and the online store's periodic checkpoint, which the
pre-unification hierarchical driver dropped), and the adaptive
synchronization policy the single-loop seam enables.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.pagerank import PageRankBlockSpec, PageRankKVSpec, pagerank_reference
from repro.cluster import OnlineStateStore, RoundAccountant, SimCluster, ec2_nodes
from repro.core import (
    AdaptiveSyncPolicy,
    BlockBackend,
    BlockSpec,
    DriverConfig,
    EngineBackend,
    HierarchicalBackend,
    IterationLoop,
    LocalSolveReport,
    Session,
    make_racks,
)
from repro.engine import MapReduceRuntime, NodeFaultPlan, StragglerPlan
from repro.graph import multilevel_partition, preferential_attachment


@pytest.fixture(scope="module")
def workload():
    g = preferential_attachment(300, num_conn=3, locality_prob=0.92,
                                community_mean=40, seed=7)
    part = multilevel_partition(g, 4, seed=0)
    return g, part


class ScopedGeometricSpec(BlockSpec):
    """Partition-scoped toy: each partition halves its slot toward 0.

    ``global_combine`` reports nonzero ``extra_bytes`` so tests can pin
    the combine-shuffle charge, and the state is partition-scoped so the
    hierarchical backend accepts it.
    """

    partition_scoped_state = True

    def __init__(self, *, parts: int = 4, tol: float = 1e-4,
                 extra_bytes: int = 64) -> None:
        self.parts = parts
        self.tol = tol
        self.extra_bytes = extra_bytes

    def num_partitions(self):
        return self.parts

    def init_state(self):
        return np.full(self.parts, 1.0)

    def local_solve(self, part_id, state, *, max_local_iters):
        x = float(state[part_id])
        ops = []
        iters = 0
        while iters < max_local_iters:
            nxt = x / 2
            ops.append(4.0)
            iters += 1
            step = abs(nxt - x)
            x = nxt
            if step < self.tol:
                break
        return LocalSolveReport(partition=part_id, updates=x,
                                local_iters=iters, per_iter_ops=ops,
                                shuffle_bytes=8)

    def global_combine(self, state, reports):
        new = state.copy()
        for r in reports:
            new[r.partition] = r.updates
        return new, 1.0, self.extra_bytes

    def global_converged(self, prev, curr):
        res = float(np.abs(curr - prev).max())
        return res < self.tol, res


class TestKvBlockEquivalence:
    """Satellite: the same PageRank workload through EngineBackend and
    BlockBackend produces shape-compatible round records."""

    def test_round_record_shapes_match(self, workload):
        g, part = workload
        cfg = DriverConfig(mode="eager")
        with MapReduceRuntime("serial", cluster=SimCluster()) as rt:
            kv = IterationLoop(
                EngineBackend(PageRankKVSpec(g, part), runtime=rt), cfg).run()
        block = IterationLoop(
            BlockBackend(PageRankBlockSpec(g, part), cluster=SimCluster()),
            cfg).run()

        assert kv.converged and block.converged
        for res in (kv, block):
            # one local-iteration count per partition, every round
            assert all(len(r.local_iters) == part.k for r in res.history)
            assert all(min(r.local_iters) >= 1 for r in res.history)
            # every round ships data and costs simulated time
            assert all(r.shuffle_bytes > 0 for r in res.history)
            assert all(r.sim_seconds > 0 for r in res.history)
            # the sim clock is monotone and accounted round by round
            assert res.sim_time == pytest.approx(
                sum(r.sim_seconds for r in res.history))

    def test_same_fixed_point(self, workload):
        g, part = workload
        cfg = DriverConfig(mode="eager")
        kv = IterationLoop(EngineBackend(PageRankKVSpec(g, part)), cfg).run()
        block = IterationLoop(
            BlockBackend(PageRankBlockSpec(g, part)), cfg).run()
        ref = pagerank_reference(g)
        kv_ranks = np.array([kv.state[u][0] for u in range(g.num_nodes)])
        assert np.abs(kv_ranks - ref).max() < 1e-3
        assert np.abs(np.asarray(block.state) - ref).max() < 1e-3


class TestHierarchyBlockParity:
    """Satellite: hierarchy with ``inner_rounds=1`` charges identically
    to the plain eager block driver — including the ``extra_bytes``
    shuffle and the online store's periodic checkpoint that the
    pre-unification hierarchical driver silently dropped."""

    CFG = DriverConfig(mode="eager", checkpoint_every=2,
                       state_store=lambda: OnlineStateStore(num_tablets=1))

    def _run_pair(self, spec_factory, racks, config):
        flat_cl, hier_cl = SimCluster(), SimCluster()
        flat = IterationLoop(
            BlockBackend(spec_factory(), cluster=flat_cl), config).run()
        hier = IterationLoop(
            HierarchicalBackend(spec_factory(), racks,
                                inner_rounds=1,
                                cluster=hier_cl), config).run()
        return flat, hier, flat_cl, hier_cl

    def test_pinned_identical_charges_toy(self):
        flat, hier, flat_cl, hier_cl = self._run_pair(
            lambda: ScopedGeometricSpec(), make_racks(4, 2), self.CFG)
        assert hier.global_iters == flat.global_iters
        assert np.array_equal(np.asarray(hier.state), np.asarray(flat.state))
        assert hier.sim_time == flat.sim_time
        # phase-by-phase: same labels, same totals (extra-bytes shuffle
        # and checkpoint events included)
        assert hier_cl.trace.phases() == flat_cl.trace.phases()
        assert any("shuffle+" in p for p in hier_cl.trace.phases())
        assert any("checkpoint" in p for p in hier_cl.trace.phases())
        # round-for-round history identity
        assert [(r.sim_seconds, r.shuffle_bytes, r.local_iters)
                for r in hier.history] == \
               [(r.sim_seconds, r.shuffle_bytes, r.local_iters)
                for r in flat.history]

    def test_pinned_identical_charges_pagerank(self, workload):
        g, part = workload
        flat, hier, flat_cl, hier_cl = self._run_pair(
            lambda: PageRankBlockSpec(g, part), make_racks(part.k, 2),
            DriverConfig(mode="eager"))
        assert hier.global_iters == flat.global_iters
        assert hier.sim_time == flat.sim_time
        assert hier_cl.trace.phases() == flat_cl.trace.phases()

    def test_inner_rounds_add_rack_charges_only(self):
        cfg = DriverConfig(mode="eager")
        cl = SimCluster()
        res = IterationLoop(
            HierarchicalBackend(ScopedGeometricSpec(), make_racks(4, 2),
                                inner_rounds=3,
                                cluster=cl), cfg).run()
        assert res.converged
        # inner rounds 2..n charge each rack's sync and solves, every
        # round, and nothing else beyond the flat driver's phases
        flat_cl = SimCluster()
        IterationLoop(BlockBackend(ScopedGeometricSpec(), cluster=flat_cl),
                      cfg).run()
        extra = set(cl.trace.phases()) - set(flat_cl.trace.phases())
        assert extra == {f"iter{it}:rack{i}:{kind}"
                         for it in range(res.global_iters) for i in (0, 1)
                         for kind in ("sync", "map")}

    def test_rack_charges_golden_on_heterogeneous_nodes(self, workload):
        # Fast and slow nodes interleaved: each rack's solves are a map
        # phase on half the slots (every node's first slot before any
        # node's second), longest first to the slot free earliest, and
        # the fork of the two racks costs the slower one.  The literal
        # is the first commit that priced rack rounds this way.
        g, part = workload
        cl = SimCluster(ec2_nodes(8, speeds=[1.0, 0.6] * 4))
        res = IterationLoop(
            HierarchicalBackend(PageRankBlockSpec(g, part), make_racks(part.k, 2),
                                inner_rounds=3,
                                cluster=cl), DriverConfig(mode="eager")).run()
        assert res.global_iters == 20
        assert res.sim_time == 548.0074463333331
        assert res.sim_time == cl.clock


class TestRackPhases:
    """Each rack's inner rounds 2..n are one branch of a
    ``SimCluster.concurrently`` fork, and its solves an ordinary map
    phase: they meet stragglers, deaths, speculation and the job's
    share like any other phase."""

    INNER_ROUNDS = 3

    def _run(self, cl, spec, config=DriverConfig(mode="eager")):
        return IterationLoop(
            HierarchicalBackend(spec, make_racks(spec.num_partitions(), 2),
                                inner_rounds=self.INNER_ROUNDS, cluster=cl),
            config).run()

    @staticmethod
    def _rack_seconds(cl):
        return sum(t for phase, t in cl.trace.phases().items()
                   if ":rack" in phase)

    def test_rack_phases_rise_under_stragglers(self, workload):
        g, part = workload
        plain, slow = SimCluster(), SimCluster(
            stragglers=StragglerPlan.slow_nodes({n: 4.0 for n in range(8)}))
        a = self._run(plain, PageRankBlockSpec(g, part))
        b = self._run(slow, PageRankBlockSpec(g, part))
        assert a.global_iters == b.global_iters
        assert self._rack_seconds(slow) > self._rack_seconds(plain)

    def test_rack_phases_never_run_on_a_dead_node(self, workload):
        g, part = workload
        probe = SimCluster()
        self._run(probe, PageRankBlockSpec(g, part))
        first = min(e.start for e in probe.trace.events
                    if e.phase == "iter0:rack0:map")
        # node 1 dies just after round 0's first rack phase begins
        death = first + 0.01
        cl = SimCluster(node_faults=NodeFaultPlan.kill_node(
            1, round=0, at_seconds=death))
        res = self._run(cl, PageRankBlockSpec(g, part))
        assert res.history[0].node_deaths == 1
        round0 = [e for e in cl.trace.events if e.phase.startswith("iter0:")]
        (killed,) = [e for e in round0 if e.label.endswith(":killed")]
        assert killed.phase == "iter0:rack0:map" and killed.end == death
        assert not [e for e in round0 if e.node_id == 1 and e.end > death]
        # the killed solve re-ran on a survivor
        assert any(e.label.endswith(":replay") for e in round0
                   if e.phase == "iter0:rack0:map")

    def test_rack_phases_speculate(self, workload):
        g, _ = workload
        cl = SimCluster(stragglers=StragglerPlan.slow_nodes({0: 4.0}))
        res = self._run(cl, PageRankBlockSpec(g, multilevel_partition(
            g, 8, seed=0)), DriverConfig(mode="eager", speculate=True))
        rack_backups = [e for e in cl.trace.events
                        if ":rack" in e.phase and e.label.endswith(":backup")]
        assert rack_backups
        assert sum(r.backups for r in res.history) >= len(rack_backups)

    def test_rack_phases_take_half_the_job_share_in_a_fair_session(self):
        cl = SimCluster()
        session = Session(cluster=cl, policy="fair")
        hier = session.submit(
            HierarchicalBackend(ScopedGeometricSpec(parts=32),
                                make_racks(32, 2), inner_rounds=self.INNER_ROUNDS,
                                cluster=cl),
            DriverConfig(mode="eager"), name="hier")
        session.submit(BlockBackend(ScopedGeometricSpec(), cluster=cl),
                       DriverConfig(mode="eager", max_global_iters=1))
        session.run()
        assert hier.slot_shares[:2] == [0.5, 1.0]
        for it, share in enumerate(hier.slot_shares[:2]):
            for i in (0, 1):
                slots = {(e.node_id, e.slot) for e in cl.trace.events
                         if e.phase == f"hier:iter{it}:rack{i}:map"}
                # 16 solves a rack, on half the job's share of 32 slots
                assert len(slots) == round(cl.total_map_slots * share / 2)


class TestAdaptiveSyncPolicy:
    def test_same_fixed_point_and_adapts(self, workload):
        g, part = workload
        policy = AdaptiveSyncPolicy()
        ada = IterationLoop(BlockBackend(PageRankBlockSpec(g, part)),
                            DriverConfig(mode="eager"),
                            sync_policy=policy).run()
        assert ada.converged
        assert np.abs(np.asarray(ada.state) - pagerank_reference(g)).max() < 1e-3
        assert len(policy.budgets) == ada.global_iters
        assert len(set(policy.budgets)) > 1  # the budget actually moved
        assert all(1 <= b <= DriverConfig(mode="eager").max_local_iters
                   for b in policy.budgets)

    def test_general_mode_pins_budget_to_one(self):
        policy = AdaptiveSyncPolicy()
        res = IterationLoop(BlockBackend(ScopedGeometricSpec()),
                            DriverConfig(mode="general"),
                            sync_policy=policy).run()
        assert res.converged
        assert set(policy.budgets) == {1}
        # identical to the plain general run
        plain = IterationLoop(BlockBackend(ScopedGeometricSpec()),
                              DriverConfig(mode="general")).run()
        assert res.global_iters == plain.global_iters

    def test_policy_reset_between_runs(self, workload):
        g, part = workload
        policy = AdaptiveSyncPolicy()
        first = IterationLoop(BlockBackend(PageRankBlockSpec(g, part)),
                              DriverConfig(mode="eager"),
                              sync_policy=policy).run()
        budgets_first = list(policy.budgets)
        second = IterationLoop(BlockBackend(PageRankBlockSpec(g, part)),
                               DriverConfig(mode="eager"),
                               sync_policy=policy).run()
        assert policy.budgets == budgets_first  # deterministic re-run
        assert second.global_iters == first.global_iters


class TestRoundAccountant:
    def test_inactive_charges_are_noops(self):
        acct = RoundAccountant(None, DriverConfig(mode="eager"))
        assert not acct.active
        assert acct.clock == 0.0
        assert acct.charge_job_startup() == 0.0
        assert acct.charge_shuffle(1 << 20) == 0.0
        assert acct.charge_map_phase([], label="x") == 0.0
        assert acct.charge_global_sync(iteration=0, extra_bytes=64,
                                       reduce_ops=1.0,
                                       state_partition_bytes=(100,),
                                       label="x") == 0.0

    def test_composites_require_config(self):
        acct = RoundAccountant(SimCluster())
        with pytest.raises(ValueError, match="DriverConfig"):
            acct.charge_map_phase([], label="x")

    def test_checkpoint_only_with_online_store(self):
        def total(config):
            cl = SimCluster()
            acct = RoundAccountant(cl, config)
            for it in range(4):
                acct.charge_global_sync(iteration=it, extra_bytes=0,
                                        reduce_ops=100.0,
                                        state_partition_bytes=(1 << 16,),
                                        label=f"iter{it}")
            return cl.clock, cl.trace.phases()

        dfs_time, dfs_phases = total(DriverConfig(mode="eager",
                                                  state_store="dfs"))
        on_time, on_phases = total(DriverConfig(
            mode="eager", state_store=OnlineStateStore(num_tablets=1),
            checkpoint_every=2))
        assert not any("checkpoint" in p for p in dfs_phases)
        assert sum("checkpoint" in p for p in on_phases) == 2
