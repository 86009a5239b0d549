"""Checkpoint rollback and lineage recovery through the iteration loop.

A node death mid-round loses the un-checkpointed tablets its node
served, so :class:`IterationLoop` must restore the last periodic
checkpoint and replay forward — and the replayed run must land on the
*same* iterates as a failure-free run (the paper's §II determinism
guarantee, lifted from one job to the whole iterative driver).  These
tests pin the rollback arithmetic (``rounds_replayed``), the
cadence/recovery-time tradeoff, and the surfacing of every recovery
statistic through :class:`RoundRecord`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.apps.pagerank import PageRankKVSpec
from repro.cluster import (
    EC2_DEFAULTS,
    OnlineStateStore,
    SimCluster,
)
from repro.core import (
    BlockBackend,
    BlockSpec,
    DriverConfig,
    EngineBackend,
    IterationLoop,
    LocalSolveReport,
)
from repro.cluster.accountant import RoundAccountant, RoundLedger
from repro.core.session import Session
from repro.engine import MapReduceRuntime, NodeFaultPlan, StragglerPlan
from repro.graph import multilevel_partition, preferential_attachment

#: Slow maps so a mid-wave kill always catches tasks in flight.
CM = replace(EC2_DEFAULTS, map_op_seconds=0.5)


class GeoSpec(BlockSpec):
    """Each partition halves its slot toward zero — one op per round,
    so the round structure (and therefore the rollback arithmetic) is
    exactly predictable."""

    partition_scoped_state = True

    def __init__(self, parts: int = 12) -> None:
        self.parts = parts

    def num_partitions(self):
        return self.parts

    def init_state(self):
        return np.full(self.parts, 1.0)

    def local_solve(self, part_id, state, *, max_local_iters):
        x = float(state[part_id])
        ops = []
        iters = 0
        while iters < max_local_iters:
            x = x / 2
            ops.append(4.0)
            iters += 1
        return LocalSolveReport(partition=part_id, updates=x,
                                local_iters=iters, per_iter_ops=ops,
                                shuffle_bytes=8)

    def global_combine(self, state, reports):
        new = state.copy()
        for r in reports:
            new[r.partition] = r.updates
        return new, 1.0, 64

    def global_converged(self, prev, curr):
        res = float(np.abs(curr - prev).max())
        return res < 1e-9, res


def _run(parts=12, *, node_faults=None, checkpoint_every=4,
         state_store=None, rounds=20):
    cfg = DriverConfig(mode="eager", max_global_iters=rounds,
                       max_local_iters=1,
                       checkpoint_every=checkpoint_every,
                       state_store=(state_store if state_store is not None
                                    else OnlineStateStore(num_tablets=4)))
    cl = SimCluster(cost_model=CM, node_faults=node_faults)
    return IterationLoop(BlockBackend(GeoSpec(parts), cluster=cl), cfg).run()


class TestRollbackOnSimPath:
    def test_recovery_stats_surface_in_round_record(self):
        plan = NodeFaultPlan.kill_node(1, round=11, at_seconds=1.0,
                                       num_nodes=8)
        res = _run(node_faults=plan, checkpoint_every=4)
        rec = res.history[11]
        assert rec.node_deaths == 1
        assert rec.rounds_replayed == 11 % 4 + 1 == 4
        assert rec.recovery_seconds > 0
        # only the death round pays recovery
        assert all(r.rounds_replayed == 0 for i, r in enumerate(res.history)
                   if i != 11)
        assert all(r.node_deaths == 0 for i, r in enumerate(res.history)
                   if i != 11)

    def test_rollback_is_bitwise_faithful(self):
        base = _run()
        for cadence in (2, 4, 6, 12):
            plan = NodeFaultPlan.kill_node(1, round=11, at_seconds=1.0,
                                           num_nodes=8)
            res = _run(node_faults=plan, checkpoint_every=cadence)
            assert np.array_equal(res.state, base.state)
            assert len(res.history) == len(base.history)

    def test_recovery_shrinks_with_tighter_cadence(self):
        """The ISSUE gate: kill at round 11, sweep the checkpoint
        cadence — recovery time must strictly improve as checkpoints
        tighten, because fewer rounds need replaying."""
        costs = []
        for cadence in (2, 4, 6, 12):
            plan = NodeFaultPlan.kill_node(1, round=11, at_seconds=1.0,
                                           num_nodes=8)
            res = _run(node_faults=plan, checkpoint_every=cadence)
            rec = res.history[11]
            assert rec.rounds_replayed == 11 % cadence + 1
            costs.append(rec.recovery_seconds)
        assert costs == sorted(costs)
        assert len(set(costs)) == len(costs)  # strictly increasing

    def test_rack_kill_costs_more_than_node_kill(self):
        node = NodeFaultPlan.kill_node(1, round=11, at_seconds=1.0,
                                       num_nodes=8)
        rack = NodeFaultPlan.kill_rack(0, round=11, at_seconds=1.0,
                                       num_nodes=8, nodes_per_rack=4)
        rn = _run(parts=64, node_faults=node)
        rr = _run(parts=64, node_faults=rack)
        assert rr.history[11].node_deaths == 4
        assert rn.history[11].node_deaths == 1
        assert (rr.history[11].recovery_seconds
                > rn.history[11].recovery_seconds)
        base = _run(parts=64)
        assert np.array_equal(rn.state, base.state)
        assert np.array_equal(rr.state, base.state)

    def test_bare_backend_in_a_faulty_session_rolls_back(self):
        """A backend submitted without a cluster is charged through the
        session's: a death on that cluster rolls it back exactly as it
        rolls back the same job attached to the cluster."""
        def run(attach):
            cl = SimCluster(cost_model=CM, node_faults=NodeFaultPlan.kill_node(
                1, round=11, at_seconds=1.0, num_nodes=8))
            cfg = DriverConfig(mode="eager", max_global_iters=20,
                               max_local_iters=1, checkpoint_every=4,
                               state_store=OnlineStateStore(num_tablets=4))
            session = Session(cluster=cl)
            handle = session.submit(
                BlockBackend(GeoSpec(), cluster=cl if attach else None), cfg)
            session.run()
            return handle.result

        attached, bare = run(True), run(False)
        assert attached.history[11].rounds_replayed == 4
        assert bare.history == attached.history
        assert np.array_equal(bare.state, attached.state)

    def test_durable_store_skips_rollback(self):
        """A replicated-DFS store loses nothing to a node death: the
        death is priced and recorded, but no rounds are replayed."""
        plan = NodeFaultPlan.kill_node(1, round=11, at_seconds=1.0,
                                       num_nodes=8)
        res = _run(node_faults=plan, state_store="dfs")
        rec = res.history[11]
        assert rec.node_deaths == 1
        assert rec.rounds_replayed == 0
        assert np.array_equal(res.state, _run(state_store="dfs").state)

    def test_tablet_merges_stay_on_the_store(self):
        """Merges are the store's log (what the CLI prints); a round
        records only its splits."""
        store = OnlineStateStore(num_tablets=4, merge_threshold=10 ** 9)
        res = _run(state_store=store, rounds=6)
        assert store.tablet_map_version == len(store.merge_events) > 0
        assert all(r.tablet_splits == 0 for r in res.history)


class TestRoundLedger:
    """The accountant keeps one ledger per round: ``begin_round`` opens
    it, every charge writes it as it happens, and the round's record is
    read from it once."""

    @staticmethod
    def _ledger_fields(rec):
        return {name: getattr(rec, name) for name in vars(RoundLedger())}

    def test_kill_round_fills_the_ledger_and_the_next_round_is_clean(self):
        plan = NodeFaultPlan.kill_node(1, round=11, at_seconds=1.0,
                                       num_nodes=8)
        cfg = DriverConfig(mode="eager", max_global_iters=20,
                           max_local_iters=1, checkpoint_every=4,
                           state_store=OnlineStateStore(num_tablets=4))
        loop = IterationLoop(
            BlockBackend(GeoSpec(), cluster=SimCluster(cost_model=CM,
                                                       node_faults=plan)),
            cfg)
        loop.start()
        acct = loop.backend.accountant
        for _ in range(12):
            loop.step()
        rec = loop._history[11]
        ledger = acct.ledger
        assert ledger.node_deaths == 1
        assert ledger.rounds_replayed == 4
        assert ledger.recovery_seconds > 0
        assert self._ledger_fields(rec) == vars(ledger)
        loop.step()
        assert acct.ledger == RoundLedger()
        assert self._ledger_fields(loop._history[12]) == vars(RoundLedger())
        loop.close()

    def test_clusterless_recovery_still_records_deaths(self):
        acct = RoundAccountant(None)
        acct.begin_round(0)
        assert acct.charge_recovery(5.0, node_deaths=2,
                                    lost_map_outputs=3) == 0.0
        assert acct.ledger == RoundLedger(node_deaths=2, lost_map_outputs=3)
        acct.begin_round(1)
        assert acct.ledger == RoundLedger()

    def test_interleaved_session_jobs_keep_their_own_ledgers(self):
        """Two jobs take turns on one straggling cluster and one
        splitting store: only the speculating job records backups, and
        every split lands in exactly one job's round."""
        cluster = SimCluster(cost_model=CM,
                             stragglers=StragglerPlan.slow_nodes({0: 4.0}))
        store = OnlineStateStore(num_tablets=2, split_threshold=2000)
        session = Session(cluster=cluster, policy="rr", state_store=store)
        base = dict(mode="eager", max_global_iters=8, max_local_iters=1)
        fast = session.submit(BlockBackend(GeoSpec(64)),
                              DriverConfig(**base, speculate=True))
        plain = session.submit(BlockBackend(GeoSpec(96)),
                               DriverConfig(**base))
        session.run()
        spec_hist, plain_hist = fast.result.history, plain.result.history
        assert sum(r.backups for r in spec_hist) > 0
        assert all(r.backups == r.backups_won == 0 and r.wasted_seconds == 0
                   for r in plain_hist)
        # Round robin alternates the jobs' rounds, one state round trip
        # each, and a split logs the store's round count when it fired.
        logged = [e[3] for e in store.split_events]
        for first, hist in ((1, spec_hist), (2, plain_hist)):
            assert [r.tablet_splits for r in hist] == [
                logged.count(first + 2 * i) for i in range(len(hist))]
        assert sum(r.tablet_splits for r in plain_hist) > 0
        assert sum(r.tablet_splits for r in spec_hist) > 0


class TestRollbackOnEnginePath:
    """The real engine is clusterless here, so a node death costs no
    simulated tablets — deaths and lineage losses still surface through
    the RoundRecord, and the output stays bitwise identical."""

    @pytest.fixture(scope="class")
    def workload(self):
        g = preferential_attachment(200, num_conn=3, locality_prob=0.9,
                                    community_mean=40, seed=3)
        part = multilevel_partition(g, 4, seed=0)
        return g, part

    def test_engine_death_mid_loop_is_bitwise_identical(self, workload):
        g, part = workload
        cfg = DriverConfig(mode="eager", max_global_iters=30)
        with MapReduceRuntime("serial") as rt:
            base = IterationLoop(
                EngineBackend(PageRankKVSpec(g, part), runtime=rt),
                cfg).run()
        plan = NodeFaultPlan.kill_node(1, round=2, after_completions=1,
                                       num_nodes=4)
        with MapReduceRuntime("threads", workers=3, node_faults=plan) as rt:
            res = IterationLoop(
                EngineBackend(PageRankKVSpec(g, part), runtime=rt),
                cfg).run()
        assert res.converged and base.converged
        rec = res.history[2]
        assert rec.node_deaths == 1
        assert rec.rounds_replayed == 0  # nothing simulated was lost
        assert all(r.node_deaths == 0 for i, r in enumerate(res.history)
                   if i != 2)
        assert np.array_equal(res.state, base.state)
