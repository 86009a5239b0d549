"""Tests for the MapReduce runtime: executors, retries, accounting."""

from __future__ import annotations

import pytest

from repro.apps.wordcount import wordcount_job, wordcount_map, wordcount_reduce
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

EXPECTED = {
    "the": 3, "quick": 3, "brown": 1, "fox": 2, "jumps": 1,
    "over": 1, "lazy": 1, "dog": 2, "barks": 1,
}


class TestSerialRuntime:
    def test_wordcount(self):
        res = MapReduceRuntime("serial").run(wordcount_job(), DOCS)
        assert res.as_dict() == EXPECTED

    def test_without_combiner_same_result(self):
        res = MapReduceRuntime("serial").run(
            wordcount_job(use_combiner=False), DOCS)
        assert res.as_dict() == EXPECTED

    def test_output_sorted_within_reducer(self):
        job = Job(wordcount_map, wordcount_reduce,
                  conf=JobConf(num_reducers=1, sort_keys=True))
        res = MapReduceRuntime("serial").run(job, DOCS)
        keys = [k for k, _ in res.output]
        assert keys == sorted(keys)

    def test_counters_populated(self):
        res = MapReduceRuntime("serial").run(wordcount_job(), DOCS)
        assert res.counters.get("task.map.input.records") == 4
        assert res.counters.get(SHUFFLE_BYTES) > 0

    def test_empty_input(self):
        res = MapReduceRuntime("serial").run(wordcount_job(), [])
        assert res.output == []

    def test_empty_splits(self):
        res = MapReduceRuntime("serial").run(wordcount_job(), [[], []])
        assert res.output == []

    def test_sim_times_empty_without_cluster(self):
        res = MapReduceRuntime("serial").run(wordcount_job(), DOCS)
        assert res.sim_times == {}
        assert res.sim_time_total == 0.0


class TestParallelExecutors:
    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_equivalent_to_serial(self, executor):
        res = MapReduceRuntime(executor, workers=3).run(wordcount_job(), DOCS)
        assert res.as_dict() == EXPECTED

    def test_invalid_executor(self):
        with pytest.raises(ValueError, match="executor"):
            MapReduceRuntime("gpu")

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            MapReduceRuntime("threads", workers=0)


class TestFaultTolerance:
    def test_map_retry_recovers(self):
        rt = MapReduceRuntime("serial",
                              fault_plan=FaultPlan(scripted={("map", 1): 2}))
        res = rt.run(wordcount_job(), DOCS)
        assert res.as_dict() == EXPECTED
        assert res.counters.get(TASK_RETRIES) == 2

    def test_reduce_retry_recovers(self):
        rt = MapReduceRuntime("serial",
                              fault_plan=FaultPlan(scripted={("reduce", 0): 1}))
        res = rt.run(wordcount_job(), DOCS)
        assert res.as_dict() == EXPECTED

    def test_exhausted_attempts_fail_job(self):
        rt = MapReduceRuntime("serial",
                              fault_plan=FaultPlan(scripted={("map", 0): 99}))
        with pytest.raises(JobFailedError):
            rt.run(wordcount_job(), DOCS)

    def test_every_task_failing_same_output(self):
        # every map and reduce task fails all but its last attempt
        scripted = {(phase, i): 3 for phase, n in (("map", 3), ("reduce", 2))
                    for i in range(n)}
        rt = MapReduceRuntime(
            "serial", fault_plan=FaultPlan(scripted=scripted))
        res = rt.run(wordcount_job(), DOCS)
        assert res.as_dict() == EXPECTED

    @pytest.mark.parametrize("executor", ["threads"])
    def test_faults_under_parallel_executor(self, executor):
        rt = MapReduceRuntime(
            executor, fault_plan=FaultPlan(scripted={("map", 0): 1, ("reduce", 1): 1}))
        res = rt.run(wordcount_job(), DOCS)
        assert res.as_dict() == EXPECTED

    def test_non_simulated_errors_propagate(self):
        def bad_map(key, value, ctx):
            raise RuntimeError("app bug")

        job = Job(bad_map, wordcount_reduce)
        with pytest.raises(RuntimeError, match="app bug"):
            MapReduceRuntime("serial").run(job, DOCS)


class TestSimAccounting:
    def test_phases_charged(self):
        rt = MapReduceRuntime("serial", cluster=SimCluster())
        res = rt.run(wordcount_job(), DOCS)
        for phase in ("startup", "map", "shuffle", "reduce", "barrier", "dfs"):
            assert phase in res.sim_times
        assert res.sim_time_total > 0
        assert rt.cluster.clock == pytest.approx(res.sim_time_total)

    def test_startup_dominates_small_jobs(self):
        # the paper's premise: tiny jobs are all barrier/startup overhead
        rt = MapReduceRuntime("serial", cluster=SimCluster())
        res = rt.run(wordcount_job(), DOCS)
        assert res.sim_times["startup"] > res.sim_times["map"] / 2

    def test_more_data_costs_more_map_time(self):
        rt1 = MapReduceRuntime("serial", cluster=SimCluster())
        r_small = rt1.run(wordcount_job(), DOCS)
        big = [[(i, "word " * 200)] for i in range(20)]
        rt2 = MapReduceRuntime("serial", cluster=SimCluster())
        r_big = rt2.run(wordcount_job(), big)
        assert r_big.sim_times["map"] > r_small.sim_times["map"]

    def test_faulty_run_same_output_more_time(self):
        clean_rt = MapReduceRuntime("serial", cluster=SimCluster())
        clean = clean_rt.run(wordcount_job(), DOCS)
        faulty_rt = MapReduceRuntime(
            "serial", cluster=SimCluster(),
            fault_plan=FaultPlan(scripted={("map", 0): 1}))
        faulty = faulty_rt.run(wordcount_job(), DOCS)
        assert faulty.as_dict() == clean.as_dict()


class TestJobValidation:
    def test_map_fn_must_be_callable(self):
        with pytest.raises(TypeError):
            Job("not callable", wordcount_reduce)

    def test_reduce_fn_must_be_callable(self):
        with pytest.raises(TypeError):
            Job(wordcount_map, 42)

    def test_combiner_optional(self):
        Job(wordcount_map, wordcount_reduce, combine_fn=None)
        with pytest.raises(TypeError):
            Job(wordcount_map, wordcount_reduce, combine_fn=42)

    def test_named_aggregation_specs(self):
        # strings name built-in aggregations; unknown names are rejected
        Job(wordcount_map, "sum", combine_fn="sum")
        with pytest.raises(ValueError):
            Job(wordcount_map, wordcount_reduce, combine_fn="x")
        with pytest.raises(ValueError):
            Job(wordcount_map, "not-an-agg")

    def test_conf_validation(self):
        with pytest.raises(ValueError):
            JobConf(num_reducers=0)
        with pytest.raises(ValueError):
            JobConf(max_attempts=0)

    def test_combine_crossover_validation(self):
        with pytest.raises(ValueError, match="combine_crossover"):
            JobConf(combine_crossover=-1)
        assert JobConf(combine_crossover=0).combine_crossover == 0
