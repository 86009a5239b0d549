"""Tests for SimCluster scheduling, trace, nodes, DFS pricing, and byte
sizing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    CostModel,
    EC2_DEFAULTS,
    Event,
    SimCluster,
    SimNode,
    Trace,
    ZERO_COST,
    ec2_nodes,
    estimate_nbytes,
)


class TestSimNode:
    def test_defaults(self):
        n = SimNode(0)
        assert n.map_slots == 4 and n.reduce_slots == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            SimNode(0, map_slots=0)
        with pytest.raises(ValueError):
            SimNode(0, speed=0)
        with pytest.raises(ValueError):
            SimNode(0, reduce_slots=-1)

    def test_ec2_nodes_table1(self):
        nodes = ec2_nodes()
        assert len(nodes) == 8  # Table I: 8 instances
        assert all(n.speed == 1.0 for n in nodes)

    def test_ec2_nodes_speeds(self):
        nodes = ec2_nodes(2, speeds=[1.0, 0.5])
        assert nodes[1].speed == 0.5
        with pytest.raises(ValueError):
            ec2_nodes(2, speeds=[1.0])

    def test_ec2_nodes_count(self):
        with pytest.raises(ValueError):
            ec2_nodes(0)


class TestTrace:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            Event("map", "x", 0, 0, start=5.0, end=4.0)

    def test_makespan_and_phase_time(self):
        t = Trace()
        t.add(Event("map", "a", 0, 0, 0.0, 2.0))
        t.add(Event("map", "b", 0, 1, 0.0, 3.0))
        t.add(Event("shuffle", "s", -1, 0, 3.0, 4.0))
        assert t.makespan() == 4.0
        assert t.phase_time("map") == 5.0
        assert t.phases() == {"map": 5.0, "shuffle": 1.0}

    def test_empty_trace(self):
        t = Trace()
        assert t.makespan() == 0.0
        assert t.utilization(4) == 0.0

    def test_utilization_bounds(self):
        t = Trace()
        t.add(Event("map", "a", 0, 0, 0.0, 2.0))
        assert 0.0 < t.utilization(2) <= 1.0
        with pytest.raises(ValueError):
            t.utilization(0)

    def test_overlap_detection(self):
        t = Trace()
        t.add(Event("map", "a", 0, 0, 0.0, 2.0))
        t.add(Event("map", "b", 0, 0, 1.0, 3.0))
        with pytest.raises(AssertionError):
            t.check_no_overlap()

    def test_no_overlap_on_different_slots(self):
        t = Trace()
        t.add(Event("map", "a", 0, 0, 0.0, 2.0))
        t.add(Event("map", "b", 0, 1, 1.0, 3.0))
        t.check_no_overlap()


class TestDFS:
    """The DFS is priced, not stored: a round trip is one replicated
    write plus one read of the caller's byte count (§VIII)."""

    def test_put_get_roundtrip(self, cluster):
        t_w = EC2_DEFAULTS.dfs_write_seconds(10**6)
        t_r = EC2_DEFAULTS.dfs_read_seconds(10**6)
        assert t_w > 0 and t_r > 0
        t = cluster.charge_dfs_roundtrip(10**6, label="state")
        assert t == pytest.approx(t_w + t_r)
        (event,) = cluster.trace.events
        assert event.label == "state"
        assert event.duration == pytest.approx(t_w + t_r)

    def test_explicit_nbytes(self, cluster):
        """The charge prices the byte count as given, at the share of
        the DFS bandwidth the job holds."""
        full = cluster.charge_dfs_roundtrip(10**6)
        half = cluster.charge_dfs_roundtrip(10**6, share=0.5)
        assert half == pytest.approx(
            EC2_DEFAULTS.dfs_write_seconds(10**6, share=0.5)
            + EC2_DEFAULTS.dfs_read_seconds(10**6, share=0.5))
        assert half > full
        assert cluster.charge_dfs_roundtrip(10**7) > full

    def test_zero_cost_model_free_io(self, zero_cluster):
        assert zero_cluster.charge_dfs_roundtrip(8000) == 0.0
        assert zero_cluster.clock == 0.0
        assert len(zero_cluster.trace) == 0


class TestEstimateNbytes:
    def test_ndarray_exact(self):
        assert estimate_nbytes(np.zeros(10, dtype=np.float64)) == 80

    def test_scalars(self):
        assert estimate_nbytes(1) == 8
        assert estimate_nbytes(1.5) == 8
        assert estimate_nbytes(None) == 1

    def test_string_bytes(self):
        assert estimate_nbytes("abc") == 3
        assert estimate_nbytes(b"abcd") == 4

    def test_containers_recursive(self):
        assert estimate_nbytes([1, 2]) == 16
        assert estimate_nbytes({"a": 1}) == 9
        assert estimate_nbytes((1.0, "xy")) == 10

    def test_fallback_object(self):
        class Thing:
            pass

        assert estimate_nbytes(Thing()) == 32


class TestScheduling:
    def test_phase_makespan_at_least_lower_bound(self, cluster):
        costs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.0, 6.0]
        # unit-speed slots: no less than the longest task or work / slots
        lb = max([*costs, sum(costs) / cluster.total_map_slots])
        res = cluster.run_map_phase(costs)
        assert res.makespan >= lb
        assert res.num_tasks == len(costs)
        assert res.total_work == pytest.approx(sum(costs))

    def test_trace_has_no_slot_overlap(self, cluster):
        cluster.run_map_phase([1.0] * 100)
        cluster.trace.check_no_overlap()

    def test_parallelism_speedup(self):
        # 32 map slots: 64 unit tasks should take ~2 units + overhead,
        # far less than the 64 serial units
        cl = SimCluster(ec2_nodes(), ZERO_COST)
        res = cl.run_map_phase([1.0] * 64)
        assert res.makespan == pytest.approx(2.0)

    def test_single_giant_task_bounds_makespan(self):
        cl = SimCluster(ec2_nodes(), ZERO_COST)
        res = cl.run_map_phase([100.0] + [0.1] * 10)
        assert res.makespan == pytest.approx(100.0)

    def test_dispatch_overhead_charged_per_task(self):
        cm = CostModel(task_dispatch_seconds=0.5)
        cl = SimCluster(ec2_nodes(1, map_slots=1), cm)
        res = cl.run_map_phase([0.0, 0.0, 0.0])
        assert res.makespan == pytest.approx(1.5)

    def test_heterogeneous_speeds(self):
        nodes = ec2_nodes(2, map_slots=1, speeds=[1.0, 4.0])
        cl = SimCluster(nodes, ZERO_COST)
        res = cl.run_map_phase([4.0, 4.0])
        # fast slot runs one task in 1s; slow one in 4s -> makespan 4
        assert res.makespan == pytest.approx(4.0)

    def test_empty_phase(self, cluster):
        res = cluster.run_map_phase([])
        assert res.makespan == 0.0
        assert cluster.clock == 0.0

    def test_negative_cost_rejected(self, cluster):
        with pytest.raises(ValueError):
            cluster.run_map_phase([-1.0])

    def test_reduce_phase_uses_reduce_slots(self):
        cl = SimCluster(ec2_nodes(1, map_slots=8, reduce_slots=1), ZERO_COST)
        res = cl.run_reduce_phase([1.0, 1.0])
        assert res.makespan == pytest.approx(2.0)

    def test_clock_advances_across_phases(self, zero_cluster):
        zero_cluster.run_map_phase([1.0])
        t1 = zero_cluster.clock
        zero_cluster.run_map_phase([1.0])
        assert zero_cluster.clock == pytest.approx(t1 + 1.0)

    def test_no_reduce_slots_rejected(self):
        cl = SimCluster([SimNode(0, map_slots=1, reduce_slots=0)])
        with pytest.raises(ValueError, match="no reduce slots"):
            cl.run_reduce_phase([1.0])


class TestCharges:
    def test_job_startup(self, cluster):
        t = cluster.charge_job_startup()
        assert t == EC2_DEFAULTS.job_startup_seconds
        assert cluster.clock == pytest.approx(t)

    def test_shuffle_and_barrier(self, cluster):
        t1 = cluster.charge_shuffle(16 * 10**6)
        t2 = cluster.charge_barrier()
        assert cluster.clock == pytest.approx(t1 + t2)

    def test_dfs_roundtrip_charge(self, cluster):
        t = cluster.charge_dfs_roundtrip(10**6)
        expected = (EC2_DEFAULTS.dfs_write_seconds(10**6)
                    + EC2_DEFAULTS.dfs_read_seconds(10**6))
        assert t == pytest.approx(expected)

    def test_zero_charge_adds_no_event(self, zero_cluster):
        before = len(zero_cluster.trace)
        zero_cluster.charge_barrier()
        assert len(zero_cluster.trace) == before

    def test_cluster_needs_nodes(self):
        with pytest.raises(ValueError):
            SimCluster([])
