"""Simulated speculation: LATE estimates, straggler injection, and the
backup-scheduling win on the projected cluster.

The real engine races actual attempts (tests/engine/test_speculation.py);
here the cluster *schedules* projected backups, so every number is
deterministic and the makespan claims can be exact.
"""

from __future__ import annotations

import pytest

from repro.cluster import SimCluster, SpeculationConfig, ec2_nodes, late_threshold
from repro.engine import StragglerPlan


class TestLateThreshold:
    def test_median_default(self):
        # sorted [1..5] -> median 3 -> cut 1.5 * 3
        assert late_threshold([5, 1, 3, 2, 4],
                              slowdown_threshold=1.5) == pytest.approx(4.5)

    def test_mean_when_percentile_none(self):
        assert late_threshold([1.0, 3.0], slowdown_threshold=2.0,
                              percentile=None) == pytest.approx(4.0)

    def test_high_percentile(self):
        assert late_threshold([1.0, 1.0, 1.0, 10.0], slowdown_threshold=1.5,
                              percentile=1.0) == pytest.approx(15.0)

    def test_empty_is_zero(self):
        assert late_threshold([], slowdown_threshold=1.5) == 0.0


class TestSpeculationConfig:
    def test_defaults_validate(self):
        cfg = SpeculationConfig()
        assert cfg.slowdown_threshold > 1.0

    @pytest.mark.parametrize("kwargs", [
        {"slowdown_threshold": 1.0},
        {"percentile": 0.0},
        {"percentile": 1.5},
        {"min_completed_fraction": -0.1},
        {"check_interval": 0.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SpeculationConfig(**kwargs)


class TestStragglerPlan:
    def test_node_factor_default_full_speed(self):
        plan = StragglerPlan(node_slowdown={2: 4.0})
        assert plan.node_factor(2) == 4.0
        assert plan.node_factor(0) == 1.0

    @pytest.mark.parametrize("kwargs", [
        {"node_slowdown": {0: 0.5}},
        {"node_slowdown": {-1: 2.0}},
        # a nan factor would make the simulated clock nan, an infinite
        # one a slot's speed zero
        {"node_slowdown": {0: float("nan")}},
        {"node_slowdown": {0: float("inf")}},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            StragglerPlan(**kwargs)

    def test_slow_nodes_builds_the_plan(self):
        plan = StragglerPlan.slow_nodes({1: 3.0})
        assert plan == StragglerPlan(node_slowdown={1: 3.0})
        assert plan.node_factor(1) == 3.0

    def test_slow_nodes_copies_its_argument(self):
        slowdown = {1: 3.0}
        plan = StragglerPlan.slow_nodes(slowdown)
        slowdown[2] = 5.0
        assert plan.node_factor(2) == 1.0


def _slow_node_cluster(factor=4.0):
    return SimCluster(nodes=ec2_nodes(4),
                      stragglers=StragglerPlan(node_slowdown={0: factor}))


class TestStragglerScheduling:
    def test_slow_node_stretches_the_phase(self):
        uniform = SimCluster(nodes=ec2_nodes(4))
        base = uniform.run_map_phase([1.0] * 32).makespan
        skewed = _slow_node_cluster().run_map_phase([1.0] * 32).makespan
        assert skewed > base

    def test_speculation_recovers_most_of_the_loss(self):
        """Backups re-run the slow node's tail on idle fast slots."""
        plain = _slow_node_cluster().run_map_phase([1.0] * 32)
        spec = _slow_node_cluster().run_map_phase([1.0] * 32, speculate=True)
        assert spec.backups >= 1
        assert spec.backups_won >= 1
        assert spec.makespan < plain.makespan
        assert spec.wasted_seconds > 0.0  # losers did real duplicate work

    def test_speculation_noop_on_homogeneous_cluster(self):
        """No task runs late on a uniform cluster: no backups, and the
        phase charge is identical to the no-speculation schedule."""
        plain = SimCluster(nodes=ec2_nodes(4)).run_map_phase([1.0] * 32)
        spec = SimCluster(nodes=ec2_nodes(4)).run_map_phase(
            [1.0] * 32, speculate=True)
        assert spec.backups == 0
        assert spec.makespan == pytest.approx(plain.makespan)

    def test_reduce_phase_speculates_too(self):
        plain = _slow_node_cluster().run_reduce_phase([2.0] * 8)
        spec = _slow_node_cluster().run_reduce_phase([2.0] * 8,
                                                     speculate=True)
        assert spec.makespan <= plain.makespan

    def test_deterministic_replay(self):
        a = _slow_node_cluster().run_map_phase([1.0] * 32, speculate=True)
        b = _slow_node_cluster().run_map_phase([1.0] * 32, speculate=True)
        assert (a.makespan, a.backups, a.backups_won, a.wasted_seconds) == \
               (b.makespan, b.backups, b.backups_won, b.wasted_seconds)
