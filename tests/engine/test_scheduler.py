"""Tests for the LPT list scheduling that prices a rack's solves."""

from __future__ import annotations

import pytest

from repro.cluster import ec2_nodes
from repro.cluster.accountant import _lpt_makespan


class TestLpt:
    def test_single_slot_serialises(self):
        nodes = ec2_nodes(1, map_slots=1)
        assert _lpt_makespan([1.0, 2.0, 3.0], nodes) == pytest.approx(6.0)

    def test_parallel_slots(self):
        nodes = ec2_nodes(1, map_slots=3)
        assert _lpt_makespan([1.0, 1.0, 1.0], nodes) == pytest.approx(1.0)

    def test_lpt_quality(self):
        # LPT is within 4/3 of optimal; check a classic instance
        nodes = ec2_nodes(1, map_slots=2)
        makespan = _lpt_makespan([3.0, 3.0, 2.0, 2.0, 2.0], nodes)
        assert makespan <= (3 + 3 + 2 + 2 + 2) / 2 * (4 / 3) + 1e-9

    def test_empty(self):
        assert _lpt_makespan([], ec2_nodes(1)) == 0.0

    def test_speed_scaling(self):
        nodes = ec2_nodes(1, map_slots=1, speeds=[2.0])
        assert _lpt_makespan([4.0], nodes) == pytest.approx(2.0)

    def test_longest_task_goes_first(self):
        # submission order would pair the two short tasks and queue the
        # long one behind a short one (makespan 3)
        nodes = ec2_nodes(1, map_slots=2)
        assert _lpt_makespan([1.0, 1.0, 2.0], nodes) == 2.0

    def test_input_order_is_irrelevant(self):
        nodes = ec2_nodes(2, map_slots=2, speeds=[1.0, 0.6])
        costs = [0.5, 3.0, 1.25, 2.0, 0.75, 4.0, 1.0]
        assert (_lpt_makespan(costs, nodes)
                == _lpt_makespan(sorted(costs), nodes)
                == _lpt_makespan(costs[::-1], nodes))

    def test_ties_fill_the_lower_node_first(self):
        # every slot is free at 0: (node 0, slot 0) then (node 0, slot 1)
        # win the ties, so the slow node 1 never runs a task
        nodes = ec2_nodes(2, map_slots=2, speeds=[1.0, 0.5])
        assert _lpt_makespan([1.0, 1.0], nodes) == 1.0

    def test_zero_cost_tasks_take_no_time(self):
        assert _lpt_makespan([0.0] * 5, ec2_nodes(2)) == 0.0

    def test_only_map_slots_are_used(self):
        nodes = ec2_nodes(1, map_slots=1, reduce_slots=4)
        assert _lpt_makespan([1.0, 1.0], nodes) == 2.0
