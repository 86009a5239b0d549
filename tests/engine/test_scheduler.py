"""Tests for the LPT, submission-order, and speculative scheduling policies."""

from __future__ import annotations

import pytest

from repro.cluster import ec2_nodes
from repro.engine import (
    lpt_schedule,
    speculative_schedule,
    submission_order_schedule,
)


class TestLpt:
    def test_single_slot_serialises(self):
        nodes = ec2_nodes(1, map_slots=1)
        out = lpt_schedule([1.0, 2.0, 3.0], nodes)
        assert out.makespan == pytest.approx(6.0)

    def test_parallel_slots(self):
        nodes = ec2_nodes(1, map_slots=3)
        out = lpt_schedule([1.0, 1.0, 1.0], nodes)
        assert out.makespan == pytest.approx(1.0)

    def test_lpt_quality(self):
        # LPT is within 4/3 of optimal; check a classic instance
        nodes = ec2_nodes(1, map_slots=2)
        out = lpt_schedule([3.0, 3.0, 2.0, 2.0, 2.0], nodes)
        assert out.makespan <= (3 + 3 + 2 + 2 + 2) / 2 * (4 / 3) + 1e-9

    def test_empty(self):
        out = lpt_schedule([], ec2_nodes(1))
        assert out.makespan == 0.0
        assert out.completion == ()

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            lpt_schedule([-1.0], ec2_nodes(1))

    def test_speed_scaling(self):
        nodes = ec2_nodes(1, map_slots=1, speeds=[2.0])
        out = lpt_schedule([4.0], nodes)
        assert out.makespan == pytest.approx(2.0)

    def test_completion_per_task(self):
        nodes = ec2_nodes(1, map_slots=1)
        out = lpt_schedule([5.0, 1.0], nodes)
        # LPT runs the long task first
        assert out.completion[0] == pytest.approx(5.0)
        assert out.completion[1] == pytest.approx(6.0)


class TestSubmissionOrder:
    def test_runs_in_submission_order(self):
        nodes = ec2_nodes(1, map_slots=1)
        out = submission_order_schedule([1.0, 5.0], nodes)
        # true FIFO: the short early task is NOT displaced by the long one
        assert out.completion[0] == pytest.approx(1.0)
        assert out.completion[1] == pytest.approx(6.0)

    def test_differs_from_lpt_on_reordering_instance(self):
        nodes = ec2_nodes(1, map_slots=1)
        fifo = submission_order_schedule([1.0, 5.0], nodes)
        lpt = lpt_schedule([1.0, 5.0], nodes)
        assert fifo.completion != lpt.completion
        assert lpt.completion[1] == pytest.approx(5.0)  # LPT reorders

    def test_single_slot_completion_is_prefix_sums(self):
        nodes = ec2_nodes(1, map_slots=1)
        costs = [2.0, 0.5, 3.0, 1.0]
        out = submission_order_schedule(costs, nodes)
        running, expected = 0.0, []
        for c in costs:
            running += c
            expected.append(running)
        assert list(out.completion) == pytest.approx(expected)

    def test_equal_costs_match_lpt(self):
        nodes = ec2_nodes(2, map_slots=2)
        costs = [2.0] * 6
        assert (submission_order_schedule(costs, nodes).makespan
                == pytest.approx(lpt_schedule(costs, nodes).makespan))

    def test_empty(self):
        out = submission_order_schedule([], ec2_nodes(1))
        assert out.makespan == 0.0
        assert out.completion == ()

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            submission_order_schedule([-1.0], ec2_nodes(1))


class TestSpeculative:
    def test_no_stragglers_identical_to_lpt(self):
        nodes = ec2_nodes(2, map_slots=2)
        costs = [1.0] * 8
        assert (speculative_schedule(costs, nodes).makespan
                == lpt_schedule(costs, nodes).makespan)

    def test_straggler_node_mitigated(self):
        # node 1 is 10x slower: tasks landing there straggle; the backup
        # on a fast node must beat waiting for the slow copy
        nodes = ec2_nodes(2, map_slots=1, speeds=[1.0, 0.1])
        costs = [1.0] * 4
        base = lpt_schedule(costs, nodes)
        spec = speculative_schedule(costs, nodes)
        assert spec.backups > 0
        assert spec.makespan < base.makespan

    def test_never_worse_than_lpt(self):
        import itertools

        nodes = ec2_nodes(2, map_slots=2, speeds=[1.0, 0.25])
        for costs in itertools.product([0.5, 2.0, 8.0], repeat=4):
            f = lpt_schedule(list(costs), nodes)
            s = speculative_schedule(list(costs), nodes)
            assert s.makespan <= f.makespan + 1e-9

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            speculative_schedule([1.0], ec2_nodes(1), slowdown_threshold=1.0)

    def test_empty(self):
        out = speculative_schedule([], ec2_nodes(1))
        assert out.makespan == 0.0
        assert out.backups == 0
