"""Engine speculation: real racing attempts, first result wins.

The contract under test is the oracle property from the scheduler's
docstring: with task runners being pure functions of their split, a
speculative run must be *bitwise identical* to the same job without
speculation — on the object path and the columnar path — while the
counters expose how much duplicate work the race cost.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.engine import FaultPlan, Job, JobConf, MapReduceRuntime
from repro.engine.counters import (
    SPECULATIVE_BACKUPS,
    SPECULATIVE_WASTED_TASKS,
    SPECULATIVE_WINS,
)


def _obj_map(key, value, ctx):
    for k, v in value:
        ctx.emit(k, v)


def _col_map(key, value, ctx):
    keys, values = value
    ctx.emit_block(keys, values)


def _sleepy_map(key, value, ctx):
    time.sleep(value)
    ctx.emit(key, 1.0)


def _obj_splits(num=4, n=200, seed=3):
    rng = np.random.default_rng(seed)
    return [[(m, [(int(k), float(v)) for k, v in
                  zip(rng.integers(0, 50, n), rng.random(n))])]
            for m in range(num)]


def _col_splits(num=4, n=2000, seed=9):
    rng = np.random.default_rng(seed)
    return [[(m, (rng.integers(0, 300, n), rng.random(n)))]
            for m in range(num)]


def _run(splits, map_fn, *, executor="threads", speculate=False,
         fault_plan=None, **conf):
    with MapReduceRuntime(executor, workers=3, speculate=speculate,
                          fault_plan=fault_plan or FaultPlan.none()) as rt:
        return rt.run(Job(map_fn, "sum", combine_fn="sum",
                          conf=JobConf(num_reducers=3, **conf)), splits)


class TestRacingParity:
    def test_backup_wins_and_output_is_oracle_identical_object_path(self):
        splits = _obj_splits()
        stalled = FaultPlan(stalls={("map", 2): 0.5})
        spec = _run(splits, _obj_map, speculate=True,
                    fault_plan=stalled)
        oracle = _run(splits, _obj_map)
        assert spec.output == oracle.output
        assert spec.counters.get(SPECULATIVE_BACKUPS) >= 1
        assert (spec.counters.get(SPECULATIVE_WINS)
                + spec.counters.get(SPECULATIVE_WASTED_TASKS)) >= 1

    def test_columnar_path_oracle_identical_under_processes(self):
        splits = _col_splits()
        stalled = FaultPlan(stalls={("map", 1): 0.5})
        spec = _run(splits, _col_map, executor="processes",
                    speculate=True, fault_plan=stalled)
        oracle = _run(splits, _col_map, executor="serial")
        assert spec.output == oracle.output
        assert spec.counters.get(SPECULATIVE_BACKUPS) >= 1

    def test_reduce_phase_races_too(self):
        splits = _col_splits()
        stalled = FaultPlan(stalls={("reduce", 0): 0.4})
        spec = _run(splits, _col_map, speculate=True,
                    fault_plan=stalled)
        oracle = _run(splits, _col_map)
        assert spec.output == oracle.output
        assert spec.counters.get(SPECULATIVE_BACKUPS) >= 1

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_no_stragglers_no_backups(self, executor):
        """Healthy millisecond tasks jitter past 1.5x their median; the
        LATE floor keeps them from being backed up."""
        res = _run(_col_splits(), _col_map, executor=executor,
                   speculate=True)
        assert res.counters.get(SPECULATIVE_BACKUPS) == 0
        assert res.output == _run(_col_splits(), _col_map).output

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_skew_below_the_floor_launches_no_backup(self, executor):
        """A 40 ms task among 10 ms ones runs 4x their median but stays
        under LATE_FLOOR_SECONDS: it is not late, and a backup launched
        once it looked late could not finish first."""
        splits = [[(0, 0.04)]] + [[(m, 0.01)] for m in range(1, 6)]
        res = _run(splits, _sleepy_map, executor=executor, speculate=True)
        assert res.counters.get(SPECULATIVE_BACKUPS) == 0
        assert sorted(res.output) == [(m, 1.0) for m in range(6)]


class TestQueueWaitIsNotLateness:
    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_oversubscribed_equal_tasks_launch_no_backups(self, executor):
        """12 equal 50 ms tasks on 2 workers: most of them spend most of
        the phase *queued*.  Lateness counts from when an attempt
        reached a worker, so with no straggler nothing is backed up."""
        splits = [[(m, 0.05)] for m in range(12)]
        # The cut is the 100 ms floor (1.5x the median is 75 ms), so a
        # running task has 50 ms of slack, while the later waves spend
        # 150-250 ms *queued*: counting queue wait as lateness would
        # launch backups here.
        with MapReduceRuntime(executor, workers=2, speculate=True) as rt:
            res = rt.run(Job(_sleepy_map, "sum",
                             conf=JobConf(num_reducers=1)), splits)
        assert res.counters.get(SPECULATIVE_BACKUPS) == 0
        assert res.counters.get(SPECULATIVE_WASTED_TASKS) == 0
        assert res.output == [(m, 1.0) for m in range(12)]


class TestRacingWithRetries:
    def test_backup_namespace_disjoint_from_retries(self):
        """A task that both fails and straggles: retries occupy attempts
        below MAX_ATTEMPTS, its backup races above them, and the output
        still matches the clean oracle."""
        splits = _obj_splits()
        plan = FaultPlan(scripted={("map", 2): 1},
                         stalls={("map", 3): 0.5})
        spec = _run(splits, _obj_map, speculate=True,
                    fault_plan=plan)
        oracle = _run(splits, _obj_map)
        assert spec.output == oracle.output

    def test_speculation_off_by_default(self):
        with MapReduceRuntime("threads", workers=2) as rt:
            assert rt.speculate is False

    def test_bool_enables_defaults(self):
        with MapReduceRuntime("threads", workers=2, speculate=True) as rt:
            assert rt.speculate is True

    def test_serial_executor_rejects_speculation(self):
        """No pool, no race: serial runs ignore/refuse speculation
        rather than deadlocking the monitor loop."""
        with MapReduceRuntime("serial", speculate=True) as rt:
            res = rt.run(Job(_obj_map, "sum",
                             conf=JobConf(num_reducers=2)), _obj_splits(2))
        assert res.counters.get(SPECULATIVE_BACKUPS) == 0
