"""The simulator's dead-node set and correlated mid-phase deaths.

Covers :class:`WorkerPool` (a scripted death fires once per (round,
node), the scheduler skips dead slots until the next round restores the
fleet) and the scheduler semantics it enables: a scripted death
truncates in-flight tasks at the death clock, invalidates the doomed
node's completed map outputs, and re-queues the lost work on the
survivors no earlier than detection (``death_clock + heartbeat_seconds``).
"""

from __future__ import annotations

import pytest

from repro.cluster import SimCluster, ec2_nodes
from repro.cluster.workerpool import WorkerPool
from repro.engine import NodeDeath, NodeFaultPlan, StragglerPlan


class TestWorkerPoolLifecycle:
    def test_registration_and_heartbeats(self):
        """The pool registers every cluster node alive, by id or by
        machine, and takes its heartbeat interval from the plan."""
        assert WorkerPool(range(4)).alive_nodes == {0, 1, 2, 3}
        assert WorkerPool(ec2_nodes(3)).alive_nodes == {0, 1, 2}
        assert WorkerPool(range(4)).heartbeat_seconds == 0.0
        plan = NodeFaultPlan(num_nodes=4, heartbeat_seconds=2.0)
        assert WorkerPool(range(4), plan).heartbeat_seconds == 2.0

    def test_mark_dead_and_zombie_heartbeat(self):
        """A fired node stays dead for the rest of the round: a late
        second fire neither revives it nor re-arms it."""
        pool = WorkerPool(range(4), NodeFaultPlan(num_nodes=4))
        pool.fire(1, 7.0)
        assert pool.alive_nodes == {0, 2, 3}
        pool.fire(1, 8.0)
        assert pool.alive_nodes == {0, 2, 3}
        assert pool.pending_deaths() == {}

    def test_expiry_sweep(self):
        """A death is noticed one heartbeat interval after it happens;
        without a plan it is noticed at once."""
        plan = NodeFaultPlan(num_nodes=4, heartbeat_seconds=2.0)
        assert WorkerPool(range(4), plan).detection_clock(10.0) == 12.0
        assert WorkerPool(range(4)).detection_clock(10.0) == 10.0

    def test_deaths_armed_per_round_and_fire_once(self):
        plan = NodeFaultPlan.kill_node(2, round=1, at_seconds=4.0,
                                       num_nodes=4)
        pool = WorkerPool(range(4), plan)
        assert pool.pending_deaths() == {}          # round 0: nothing
        pool.begin_round(1, 10.0)
        assert pool.pending_deaths() == {2: 14.0}   # armed absolute clock
        assert pool.detection_clock(14.0) == 14.0 + plan.heartbeat_seconds
        pool.fire(2, 14.0)
        assert pool.alive_nodes == {0, 1, 3}
        # the next round of the plan has no death for node 2
        pool.begin_round(2, 30.0)
        assert pool.pending_deaths() == {}

    def test_pending_deaths_drops_a_fired_node(self):
        plan = NodeFaultPlan.kill_rack(0, at_seconds=1.0, num_nodes=4,
                                       nodes_per_rack=2)
        pool = WorkerPool(range(4), plan)
        assert pool.pending_deaths() == {0: 1.0, 1: 1.0}
        pool.fire(0, 1.0)
        assert pool.pending_deaths() == {1: 1.0}

    def test_begin_round_replaces_dead_workers(self):
        pool = WorkerPool(range(4), NodeFaultPlan(num_nodes=4))
        pool.fire(3, 6.0)
        pool.fire(1, 6.0)
        assert pool.alive_nodes == {0, 2}
        pool.begin_round(1, 9.0)
        assert pool.alive_nodes == {0, 1, 2, 3}

    def test_rollback_replay_does_not_rekill(self):
        plan = NodeFaultPlan.kill_node(2, round=1, at_seconds=4.0,
                                       num_nodes=4)
        pool = WorkerPool(range(4), plan)
        pool.begin_round(1, 10.0)
        pool.fire(2, 14.0)
        # a rollback replay of round 1 must not re-arm the fired death,
        # but it runs on a full fleet
        pool.begin_round(1, 20.0)
        assert pool.pending_deaths() == {}
        assert pool.alive_nodes == {0, 1, 2, 3}


class TestPlansMatchTheCluster:
    def test_fault_plan_naming_a_missing_node_is_an_error(self):
        with pytest.raises(ValueError, match="node_faults"):
            SimCluster(ec2_nodes(4),
                       node_faults=NodeFaultPlan.kill_node(6, at_seconds=0.5))

    def test_fault_plan_smaller_than_the_cluster_is_an_error(self):
        with pytest.raises(ValueError, match="node_faults"):
            SimCluster(node_faults=NodeFaultPlan.kill_node(1, num_nodes=4))

    def test_stragglers_slowing_a_missing_node_is_an_error(self):
        with pytest.raises(ValueError, match="stragglers"):
            SimCluster(ec2_nodes(4),
                       stragglers=StragglerPlan.slow_nodes({9: 4.0}))

    def test_default_eight_node_pairs_construct(self):
        cl = SimCluster(node_faults=NodeFaultPlan.kill_node(6),
                        stragglers=StragglerPlan.slow_nodes({7: 4.0}))
        assert cl.worker_pool.alive_nodes == set(range(8))
        SimCluster(node_faults=NodeFaultPlan.none(),
                   stragglers=StragglerPlan())
        SimCluster(ec2_nodes(4),
                   node_faults=NodeFaultPlan.kill_node(3, num_nodes=4),
                   stragglers=StragglerPlan.slow_nodes({3: 2.0}))


def _plan_node(at=1.5, hb=3.0):
    return NodeFaultPlan.kill_node(1, at_seconds=at, num_nodes=8,
                                   heartbeat_seconds=hb)


def _killed(cl: SimCluster) -> list:
    """The trace's truncated attempts: one ``:killed`` event each, from
    the attempt's start to its node's death."""
    return [e for e in cl.trace.events if e.label.endswith(":killed")]


class TestSimClusterDeaths:
    def test_mid_phase_kill_truncates_and_replays(self):
        cl = SimCluster(node_faults=_plan_node())
        healthy = SimCluster().run_map_phase([1.0] * 64, label="m")
        res = cl.run_map_phase([1.0] * 64, label="m")
        assert res.node_deaths == 1
        killed = _killed(cl)
        assert killed and all(e.node_id == 1 for e in killed)
        assert sum(e.duration for e in killed) > 0
        assert res.recovery_seconds > 0
        assert res.makespan > healthy.makespan
        labels = [e.label for e in cl.trace.events]
        assert any(lab.endswith(":killed") for lab in labels)
        assert any(lab.endswith(":replay") for lab in labels)
        assert 1 not in cl.worker_pool.alive_nodes

    def test_detection_latency_prices_recovery(self):
        """A longer heartbeat interval delays the re-queued work and
        stretches the phase by exactly that extra silence."""
        short = SimCluster(node_faults=_plan_node(hb=1.0))
        long = SimCluster(node_faults=_plan_node(hb=8.0))
        r_short = short.run_map_phase([1.0] * 64, label="m")
        r_long = long.run_map_phase([1.0] * 64, label="m")
        assert r_long.recovery_seconds > r_short.recovery_seconds
        assert r_long.makespan == pytest.approx(r_short.makespan + 7.0)

    def test_rack_kill_costs_more_than_node_kill(self):
        node = SimCluster(node_faults=_plan_node())
        rack = SimCluster(node_faults=NodeFaultPlan.kill_rack(
            0, at_seconds=1.5, num_nodes=8, nodes_per_rack=4))
        rn = node.run_map_phase([1.0] * 64, label="m")
        rr = rack.run_map_phase([1.0] * 64, label="m")
        assert rr.node_deaths == 4 > rn.node_deaths == 1
        assert len(_killed(rack)) > len(_killed(node))
        assert (sum(e.duration for e in _killed(rack))
                > sum(e.duration for e in _killed(node)))
        assert rr.makespan > rn.makespan

    def test_completed_outputs_on_doomed_node_are_invalidated(self):
        """Kill after the first wave: the dead node's finished map
        outputs count as lost and are re-executed."""
        cl = SimCluster(node_faults=_plan_node(at=1.5))
        res = cl.run_map_phase([1.0] * 128, label="m")  # several waves
        assert res.node_deaths == 1
        assert res.lost_map_outputs >= 1

    def test_death_does_not_refire_and_fleet_recovers(self):
        plan = _plan_node()
        cl = SimCluster(node_faults=plan)
        first = cl.run_map_phase([1.0] * 64, label="m")
        assert first.node_deaths == 1
        # later phases of the same round run on survivors, death spent
        second = cl.run_map_phase([1.0] * 64, label="m2")
        assert second.node_deaths == 0
        assert not any(e.label.endswith(":killed")
                       for e in cl.trace.events if "m2" in e.label)
        # the next round replaces the dead worker
        cl.worker_pool.begin_round(1, cl.clock)
        assert cl.worker_pool.alive_nodes == set(range(8))

    def test_every_node_dead_is_an_error(self):
        cl = SimCluster(node_faults=NodeFaultPlan(num_nodes=8))
        for n in range(8):
            cl.worker_pool.fire(n, 0.0)
        with pytest.raises(RuntimeError, match="dead"):
            cl.run_map_phase([1.0] * 4, label="m")

    def test_whole_fleet_dying_mid_phase_is_an_error(self):
        plan = NodeFaultPlan(
            num_nodes=8,
            deaths=tuple(NodeDeath(n, at_seconds=0.0) for n in range(8)))
        cl = SimCluster(node_faults=plan)
        with pytest.raises(RuntimeError, match="died mid-phase"):
            cl.run_map_phase([1.0] * 4, label="m")

    def test_immortal_fleet_without_plan(self):
        cl = SimCluster()
        assert cl.worker_pool is None
        res = cl.run_map_phase([1.0] * 16, label="m")
        assert res.node_deaths == 0 and res.recovery_seconds == 0.0
