"""Tests for the LPT list scheduling of the simulated cluster's phases.

Every phase, a rack's solves included, is scheduled by
``SimCluster.run_map_phase``: longest task first, onto the slot that
frees earliest.  ``ZERO_COST`` removes the dispatch charge so a
makespan is pure compute over slot speed.
"""

from __future__ import annotations

import pytest

from repro.cluster import SimCluster, ZERO_COST, ec2_nodes


def _makespan(costs, nodes) -> float:
    return SimCluster(nodes, ZERO_COST).run_map_phase(costs).makespan


class TestLpt:
    def test_single_slot_serialises(self):
        nodes = ec2_nodes(1, map_slots=1)
        assert _makespan([1.0, 2.0, 3.0], nodes) == pytest.approx(6.0)

    def test_parallel_slots(self):
        nodes = ec2_nodes(1, map_slots=3)
        assert _makespan([1.0, 1.0, 1.0], nodes) == pytest.approx(1.0)

    def test_lpt_quality(self):
        # LPT is within 4/3 of optimal; check a classic instance
        nodes = ec2_nodes(1, map_slots=2)
        makespan = _makespan([3.0, 3.0, 2.0, 2.0, 2.0], nodes)
        assert makespan <= (3 + 3 + 2 + 2 + 2) / 2 * (4 / 3) + 1e-9

    def test_empty(self):
        assert _makespan([], ec2_nodes(1)) == 0.0

    def test_speed_scaling(self):
        nodes = ec2_nodes(1, map_slots=1, speeds=[2.0])
        assert _makespan([4.0], nodes) == pytest.approx(2.0)

    def test_longest_task_goes_first(self):
        # submission order would pair the two short tasks and queue the
        # long one behind a short one (makespan 3)
        nodes = ec2_nodes(1, map_slots=2)
        assert _makespan([1.0, 1.0, 2.0], nodes) == 2.0

    def test_input_order_is_irrelevant(self):
        nodes = ec2_nodes(2, map_slots=2, speeds=[1.0, 0.6])
        costs = [0.5, 3.0, 1.25, 2.0, 0.75, 4.0, 1.0]
        assert (_makespan(costs, nodes)
                == _makespan(sorted(costs), nodes)
                == _makespan(costs[::-1], nodes))

    def test_ties_spread_one_task_per_node(self):
        # every slot is free at 0: (slot 0, node 0) then (slot 0, node 1)
        # win the ties, a heartbeat scheduler's wave, so the slow node 1
        # runs the second task although node 0 has a free slot
        nodes = ec2_nodes(2, map_slots=2, speeds=[1.0, 0.5])
        cl = SimCluster(nodes, ZERO_COST)
        assert cl.run_map_phase([1.0, 1.0]).makespan == 2.0
        assert sorted((e.node_id, e.slot) for e in cl.trace.events) == [
            (0, 0), (1, 0)]

    def test_zero_cost_tasks_take_no_time(self):
        assert _makespan([0.0] * 5, ec2_nodes(2)) == 0.0

    def test_only_map_slots_are_used(self):
        nodes = ec2_nodes(1, map_slots=1, reduce_slots=4)
        assert _makespan([1.0, 1.0], nodes) == 2.0
