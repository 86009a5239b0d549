"""Tests for DriverConfig and the block backend under IterationLoop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import RoundAccountant, SimCluster, ec2_nodes
from repro.core import (
    BlockBackend,
    BlockSpec,
    DriverConfig,
    EAGER,
    GENERAL,
    IterationLoop,
    LocalSolveReport,
)


def run_block(spec, config, *, cluster=None):
    return IterationLoop(BlockBackend(spec, cluster=cluster), config).run()


class TestDriverConfig:
    def test_presets(self):
        assert GENERAL.mode == "general"
        assert EAGER.mode == "eager"
        assert GENERAL.effective_local_iters == 1
        assert EAGER.effective_local_iters == EAGER.max_local_iters

    def test_validation(self):
        with pytest.raises(ValueError):
            DriverConfig(mode="fast")
        with pytest.raises(ValueError):
            DriverConfig(max_global_iters=0)
        with pytest.raises(ValueError):
            DriverConfig(max_local_iters=0)

    def test_frozen(self):
        with pytest.raises(Exception):
            EAGER.mode = "general"  # type: ignore[misc]


class GeometricSpec(BlockSpec):
    """Scalar toy: x <- x/2 per local iteration in a single partition;
    convergence when the step is below tol.  Deterministic and exactly
    analysable, for driver-behaviour tests."""

    def __init__(self, *, tol: float = 1e-3, parts: int = 2) -> None:
        self.tol = tol
        self.parts = parts
        self.hook_calls: list[int] = []

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
        return new, 1.0, 0

    def global_converged(self, prev, curr):
        res = float(np.abs(curr - prev).max())
        return res < self.tol, res

    def on_global_iteration(self, iteration, state):
        self.hook_calls.append(iteration)
        return None


class TestBlockDriver:
    def test_eager_fewer_global_iters_than_general(self):
        gen = run_block(GeometricSpec(), GENERAL)
        eag = run_block(GeometricSpec(), EAGER)
        assert eag.global_iters < gen.global_iters
        assert gen.converged and eag.converged

    def test_same_fixed_point(self):
        gen = run_block(GeometricSpec(), GENERAL)
        eag = run_block(GeometricSpec(), EAGER)
        assert np.allclose(gen.state, eag.state, atol=1e-2)

    def test_history_records(self):
        res = run_block(GeometricSpec(), EAGER)
        assert len(res.history) == res.global_iters
        assert res.history[0].iteration == 0
        assert all(len(r.local_iters) == 2 for r in res.history)
        assert res.total_local_iters > res.global_iters  # locals iterated

    def test_history_kept_when_capped(self):
        """Every round leaves one record, also when the iteration cap
        rather than convergence ends the run."""
        cfg = DriverConfig(mode="general", max_global_iters=2)
        res = run_block(GeometricSpec(tol=1e-12), cfg)
        assert not res.converged
        assert [r.iteration for r in res.history] == [0, 1]

    def test_max_global_iters_cap(self):
        cfg = DriverConfig(mode="general", max_global_iters=3)
        res = run_block(GeometricSpec(tol=1e-12), cfg)
        assert res.global_iters == 3
        assert not res.converged

    def test_hook_called_every_iteration(self):
        spec = GeometricSpec()
        res = run_block(spec, GENERAL)
        assert spec.hook_calls == list(range(res.global_iters))

    def test_residuals_decreasing(self):
        res = run_block(GeometricSpec(), GENERAL)
        r = res.residuals
        assert all(a >= b for a, b in zip(r, r[1:]))


class TestBlockDriverAccounting:
    def test_sim_time_positive_and_monotone_in_iters(self):
        gen = run_block(GeometricSpec(), GENERAL, cluster=SimCluster())
        eag = run_block(GeometricSpec(), EAGER, cluster=SimCluster())
        assert gen.sim_time > eag.sim_time > 0
        # startup overhead dominates this toy: time ~ iterations
        ratio = gen.sim_time / eag.sim_time
        iter_ratio = gen.global_iters / eag.global_iters
        assert ratio == pytest.approx(iter_ratio, rel=0.35)

    def test_round_sim_seconds_sum_to_total(self):
        cl = SimCluster()
        res = run_block(GeometricSpec(), EAGER, cluster=cl)
        assert sum(r.sim_seconds for r in res.history) == pytest.approx(res.sim_time)

    def test_no_cluster_no_time(self):
        res = run_block(GeometricSpec(), EAGER)
        assert res.sim_time == 0.0
        assert all(r.sim_seconds == 0.0 for r in res.history)

    def test_eager_schedule_no_slower_than_lockstep(self):
        eager_on = run_block(
            GeometricSpec(), DriverConfig(mode="eager", eager_schedule=True),
            cluster=SimCluster())
        eager_off = run_block(
            GeometricSpec(), DriverConfig(mode="eager", eager_schedule=False),
            cluster=SimCluster())
        # identical iteration counts; lockstep pays more dispatches
        assert eager_on.global_iters == eager_off.global_iters
        assert eager_on.sim_time <= eager_off.sim_time

    def test_local_iterations_priced_at_the_local_rate(self):
        """A gmap's first iteration is the map invocation (map rate);
        every later one runs over the in-memory table (local rate)."""
        cl = SimCluster()
        cm = cl.cost_model
        acct = RoundAccountant(cl, EAGER)
        report = LocalSolveReport(partition=0, updates=None, local_iters=3,
                                  per_iter_ops=[100.0, 40.0, 7.0])
        assert acct.gmap_task_cost(report) == (
            cm.map_compute_seconds(100.0) + cm.local_compute_seconds(40.0)
            + cm.local_compute_seconds(7.0))
        assert acct.gmap_task_cost(report, 1, 3) < (
            cm.map_compute_seconds(40.0) + cm.map_compute_seconds(7.0))

    @pytest.mark.parametrize("nodes", [None, 3])
    def test_global_sync_prices_every_reduce_slot(self, nodes):
        """A block round's reduce phase is one task per reduce slot of
        the cluster, each an even share of the combine's ops plus the
        task dispatch."""
        cl = SimCluster(None if nodes is None else ec2_nodes(nodes))
        run_block(GeometricSpec(), DriverConfig(mode="eager",
                                                max_global_iters=1),
                  cluster=cl)
        reduce = [e for e in cl.trace.events if e.phase == "iter0:reduce"]
        assert len(reduce) == cl.total_reduce_slots
        cm = cl.cost_model
        per_task = (cm.task_dispatch_seconds
                    + cm.reduce_compute_seconds(1.0) / len(reduce))
        assert all(e.duration == pytest.approx(per_task) for e in reduce)

    def test_shuffle_bytes_recorded(self):
        res = run_block(GeometricSpec(), EAGER, cluster=SimCluster())
        assert all(r.shuffle_bytes == 16 for r in res.history)
