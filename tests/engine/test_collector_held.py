"""The cyclic garbage collector is held off for the span of a job.

``MapReduceRuntime.run`` and both task runners run under
``collector_held()``: no collection inside a job, the caller's
``gc.isenabled()`` back on every exit path, and a cycle made during the
job freed by the first collection after it.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import pytest

from repro.apps.pagerank import PageRankKVSpec
from repro.core import DriverConfig, EngineBackend, IterationLoop
from repro.engine import Job, JobConf, MapReduceRuntime
from repro.engine import task as task_mod
from repro.engine.faults import FaultPlan
from repro.engine.runtime import JobFailedError
from repro.engine.task import collector_held, run_map_task
from repro.graph import multilevel_partition, preferential_attachment


def _count_map(key, value, ctx):
    ctx.emit(key % 3, 1)


def _raising_map(key, value, ctx):
    raise ValueError("boom")


def _sum_reduce(key, values, ctx):
    ctx.emit(key, sum(values))


def _job(map_fn=_count_map, **conf):
    return Job(map_fn, _sum_reduce,
               conf=JobConf(num_reducers=2, columnar=False, **conf))


SPLITS = [[(i, None) for i in range(j, j + 5)] for j in range(0, 20, 5)]


@pytest.fixture()
def collector_on():
    """Start the test with the collector on, whatever the runner did."""
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


class TestTheCallersStateComesBack:
    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_after_a_run(self, collector_on, executor):
        with MapReduceRuntime(executor, workers=2) as rt:
            res = rt.run(_job(), SPLITS)
        assert sorted(res.output) == [(0, 7), (1, 7), (2, 6)]
        assert gc.isenabled()

    @pytest.mark.parametrize("phase", ["map", "reduce"])
    def test_after_a_run_whose_task_fails_for_good(self, collector_on,
                                                   phase):
        with MapReduceRuntime("serial") as rt:
            rt.fault_plan = FaultPlan(scripted={(phase, 1): 9})
            with pytest.raises(JobFailedError):
                rt.run(_job(max_attempts=2), SPLITS)
        assert gc.isenabled()

    def test_after_a_run_whose_map_function_raises(self, collector_on):
        with MapReduceRuntime("serial") as rt:
            with pytest.raises(ValueError, match="boom"):
                rt.run(_job(_raising_map), SPLITS)
        assert gc.isenabled()

    def test_a_caller_that_disabled_it_finds_it_disabled(self, collector_on):
        gc.disable()
        with MapReduceRuntime("serial") as rt:
            rt.run(_job(), SPLITS)
            assert not gc.isenabled()
            with pytest.raises(ValueError, match="boom"):
                rt.run(_job(_raising_map), SPLITS)
            assert not gc.isenabled()
        gc.enable()

    def test_a_task_running_a_nested_job(self, collector_on):
        seen = []

        def nesting_map(key, value, ctx):
            with MapReduceRuntime("serial") as inner:
                inner.run(_job(), SPLITS)
            seen.append(gc.isenabled())
            ctx.emit(key, 1)

        with MapReduceRuntime("serial") as rt:
            rt.run(_job(nesting_map), [[(0, None)], [(1, None)]])
        assert seen == [False, False]
        assert gc.isenabled()

    def test_a_task_runner_called_alone(self, collector_on):
        seen = []

        def probing_map(key, value, ctx):
            seen.append(gc.isenabled())

        run_map_task(0, 0, [(1, None)], probing_map, None, None, 2)
        assert seen == [False]
        assert gc.isenabled()

    def test_two_threads_holding_at_once_leave_it_on(self, collector_on):
        inside = threading.Barrier(2, timeout=10)
        first_left = threading.Event()
        seen = []

        def first():
            with collector_held():
                inside.wait()
            first_left.set()

        def second():
            with collector_held():
                inside.wait()
                assert first_left.wait(timeout=10)
                # the first holder turned it back on: not this one's job
                seen.append(gc.isenabled())

        threads = [threading.Thread(target=first),
                   threading.Thread(target=second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert seen == [True]
        assert gc.isenabled()

    def test_a_hold_that_read_off_never_switches_it(self, collector_on,
                                                    monkeypatch):
        """The one interleaving that could leave it off: the second
        holder reads "off" while the first holds, the first turns it
        back on and leaves, then the second goes on."""
        first_left = threading.Event()
        second = []

        class PausingGc:
            def isenabled(self):
                state = gc.isenabled()
                if threading.current_thread() in second:
                    assert first_left.wait(timeout=10)
                return state

            disable, enable = staticmethod(gc.disable), staticmethod(gc.enable)

        def hold():
            with collector_held():
                pass

        monkeypatch.setattr(task_mod, "gc", PausingGc())
        with collector_held():
            second.append(threading.Thread(target=hold))
            second[0].start()
        first_left.set()
        second[0].join(timeout=10)
        assert not second[0].is_alive()
        assert gc.isenabled()

    def test_many_threads_holding_never_leave_it_off(self, collector_on):
        done = []

        def hold_often():
            for _ in range(1000):
                with collector_held():
                    pass
            done.append(True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hold_often) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(done) == 8
        assert gc.isenabled()


#: The body of ``MapReduceRuntime.run``, under its ``collector_held``.
RUN_BODY = getattr(MapReduceRuntime.run, "__wrapped__",
                   MapReduceRuntime.run).__code__


def test_a_kv_object_job_collects_nothing_inside_run(collector_on):
    g = preferential_attachment(300, num_conn=3, locality_prob=0.9,
                                community_mean=30, seed=3)
    inside, outside = [], []

    def on_gc(phase, info):
        # A collection "inside" has run's body on the stack; the one the
        # first allocation after the hold triggers runs after the body
        # returned (in the hold's exit, or in the caller).
        if phase != "start":
            return
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not RUN_BODY:
            frame = frame.f_back
        (outside if frame is None else inside).append(info["generation"])

    with MapReduceRuntime("serial") as rt:
        backend = EngineBackend(
            PageRankKVSpec(g, multilevel_partition(g, 4, seed=0)),
            runtime=rt, num_reducers=4, columnar=False)
        gc.callbacks.append(on_gc)
        try:
            res = IterationLoop(backend, DriverConfig(
                mode="eager", max_global_iters=4)).run()
        finally:
            gc.callbacks.remove(on_gc)
    assert res.global_iters == 4
    assert inside == []
    assert outside  # the callback is live: collections run between jobs


def test_a_cycle_made_in_a_map_is_freed_after_run(collector_on):
    refs = []

    class Node:
        pass

    def cyclic_map(key, value, ctx):
        node = Node()
        node.me = node
        refs.append(weakref.ref(node))
        ctx.emit(key, 1)

    with MapReduceRuntime("serial") as rt:
        rt.run(_job(cyclic_map), [[(0, None)]])
        gc.collect()
        assert refs[0]() is None
