"""Tests for the persistent-pool, streaming-shuffle runtime pipeline.

Covers the pool lifecycle (one pool reused across phases, attempts, and
jobs; context-manager close), the streaming pipeline's output
equivalence with the serial reference, fault-injection retries under
the persistent pool, and the shuffle accounting (the engine charges its
whole shuffle; ``SimCluster.charge_overlapped_shuffle`` prices only the
residual past an overlap).
"""

from __future__ import annotations

import concurrent.futures
import os

import pytest

from repro.apps.wordcount import wordcount_job, wordcount_reduce
from repro.cluster import SimCluster
from repro.engine import (
    FaultPlan,
    Job,
    JobConf,
    JobFailedError,
    MapReduceRuntime,
)
from repro.engine.counters import SHUFFLE_BYTES, TASK_RETRIES

DOCS = [
    [(0, "the quick brown fox"), (1, "jumps over the lazy dog")],
    [(2, "the dog barks")],
    [(3, "quick quick fox")],
]


def _job(**conf_kwargs):
    job = wordcount_job()
    job.conf = JobConf(**conf_kwargs)
    return job


@pytest.fixture(scope="module")
def reference():
    return MapReduceRuntime("serial").run(wordcount_job(), DOCS)


class TestPersistentPool:
    def test_pool_object_reused_across_jobs(self, reference):
        rt = MapReduceRuntime("threads", workers=2)
        assert rt.pool is None  # lazy: no pool before the first run
        r1 = rt.run(wordcount_job(), DOCS)
        first = rt.pool
        assert first is not None
        r2 = rt.run(wordcount_job(), DOCS)
        assert rt.pool is first  # same pool object: no churn
        assert r1.as_dict() == r2.as_dict() == reference.as_dict()
        rt.close()

    def test_pool_reused_across_phases_and_attempts(self, reference):
        # map retries + the reduce phase all hit the one pool
        rt = MapReduceRuntime(
            "threads", workers=2,
            fault_plan=FaultPlan(scripted={("map", 1): 2, ("reduce", 0): 1}))
        res = rt.run(wordcount_job(), DOCS)
        pool = rt.pool
        assert pool is not None
        assert res.as_dict() == reference.as_dict()
        assert res.counters.get(TASK_RETRIES) == 3
        res2 = rt.run(wordcount_job(), DOCS)
        assert rt.pool is pool
        assert res2.as_dict() == reference.as_dict()
        rt.close()

    def test_serial_never_creates_pool(self):
        rt = MapReduceRuntime("serial")
        rt.run(wordcount_job(), DOCS)
        assert rt.pool is None

    def test_context_manager_closes_pool(self, reference):
        with MapReduceRuntime("threads", workers=2) as rt:
            res = rt.run(wordcount_job(), DOCS)
            assert rt.pool is not None
        assert rt.pool is None
        assert res.as_dict() == reference.as_dict()

    def test_close_idempotent_and_reopenable(self, reference):
        rt = MapReduceRuntime("threads", workers=2)
        rt.run(wordcount_job(), DOCS)
        rt.close()
        rt.close()
        assert rt.pool is None
        # a closed runtime lazily re-creates its pool
        res = rt.run(wordcount_job(), DOCS)
        assert res.as_dict() == reference.as_dict()
        assert rt.pool is not None
        rt.close()


def _kill_worker_map(key, value, ctx):
    # hard-kill the worker process: simulates a segfault / OOM-kill
    os._exit(13)


class TestBrokenPoolRecovery:
    def test_process_pool_recreated_after_worker_crash(self, reference):
        # a dead worker breaks the executor; the runtime must discard it
        # (the old pool-per-batch code recovered for free) so healthy
        # jobs keep working afterwards
        rt = MapReduceRuntime("processes", workers=2)
        crash_job = Job(_kill_worker_map, wordcount_reduce)
        with pytest.raises(concurrent.futures.BrokenExecutor):
            rt.run(crash_job, DOCS)
        assert rt.pool is None  # broken pool was dropped, not kept
        res = rt.run(wordcount_job(), DOCS)  # lazily gets a fresh pool
        assert res.as_dict() == reference.as_dict()
        rt.close()


class TestStreamingPipeline:
    """Every job streams map results into the shuffle buffer and
    resubmits failed attempts at once; the output never depends on the
    executor or on which attempts failed."""

    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_output_equivalent_to_reference(self, executor, reference):
        with MapReduceRuntime(executor, workers=3) as rt:
            first = rt.run(_job(num_reducers=4), DOCS)
            again = rt.run(_job(num_reducers=4), DOCS)
        assert first.as_dict() == again.as_dict() == reference.as_dict()
        assert first.output == again.output  # byte-identical order too
        assert (first.counters.get(SHUFFLE_BYTES)
                == again.counters.get(SHUFFLE_BYTES))

    def test_scripted_faults(self, reference):
        plan = FaultPlan(scripted={("map", 0): 1, ("map", 2): 2, ("reduce", 1): 1})
        with MapReduceRuntime("threads", workers=3, fault_plan=plan) as rt:
            res = rt.run(_job(num_reducers=4), DOCS)
        assert res.as_dict() == reference.as_dict()
        assert res.counters.get(TASK_RETRIES) == 4

    def test_every_task_failing(self, reference):
        # every map and reduce task fails all but its last attempt
        plan = FaultPlan(scripted={(phase, i): 3 for phase, n
                                   in (("map", len(DOCS)), ("reduce", 2))
                                   for i in range(n)})
        with MapReduceRuntime("threads", workers=3, fault_plan=plan) as rt:
            res = rt.run(_job(num_reducers=2), DOCS)
        assert res.as_dict() == reference.as_dict()
        assert res.counters.get(TASK_RETRIES) == 3 * (len(DOCS) + 2)

    def test_exhausted_attempts_fail_job(self):
        plan = FaultPlan(scripted={("map", 0): 99})
        with MapReduceRuntime("threads", workers=2, fault_plan=plan) as rt:
            with pytest.raises(JobFailedError):
                rt.run(_job(), DOCS)

    def test_retry_counter_depends_only_on_the_plan(self, reference):
        # retries are a function of the fault plan, not of the run
        plan = FaultPlan(scripted={("map", 1): 2, ("reduce", 0): 1})
        with MapReduceRuntime("threads", workers=3, fault_plan=plan) as rt:
            first = rt.run(_job(num_reducers=2), DOCS)
            again = rt.run(_job(num_reducers=2), DOCS)
        assert (first.counters.get(TASK_RETRIES)
                == again.counters.get(TASK_RETRIES) == 3)


class TestOverlappedAccounting:
    def test_engine_charges_the_whole_shuffle(self):
        cl = SimCluster()
        res = MapReduceRuntime("serial", cluster=cl).run(_job(), DOCS)
        assert res.sim_times["shuffle"] == cl.cost_model.shuffle_seconds(
            res.counters.get(SHUFFLE_BYTES))
        for phase in ("startup", "map", "shuffle", "reduce", "barrier", "dfs"):
            assert phase in res.sim_times

    def test_overlap_is_residual(self):
        cl = SimCluster()
        full = cl.cost_model.shuffle_seconds(10**9)
        charged = cl.charge_overlapped_shuffle(10**9,
                                               overlap_seconds=full / 4)
        assert charged == pytest.approx(full * 3 / 4)
        assert cl.clock == charged

    def test_charge_overlapped_shuffle_validation(self):
        cl = SimCluster()
        with pytest.raises(ValueError):
            cl.charge_overlapped_shuffle(100.0, overlap_seconds=-1.0)

    def test_fully_hidden_transfer_charges_nothing(self):
        cl = SimCluster()
        before = cl.clock
        charged = cl.charge_overlapped_shuffle(8, overlap_seconds=1e9)
        assert charged == 0.0
        assert cl.clock == before
