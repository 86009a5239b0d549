"""Linting live objects: callables, specs, engine jobs and backends."""

from __future__ import annotations

import lint_fixtures as fixtures

from repro.apps.pagerank import PageRankBlockSpec, PageRankKVSpec
from repro.apps.wordcount import wordcount_job
from repro.core.api import AsyncMapReduceSpec, BlockSpec, LocalSolveReport
from repro.core.loop import EngineBackend
from repro.engine.job import Job, JobConf
from tools.reprolint import (
    LintReport,
    Severity,
    lint_backend,
    lint_callable,
    lint_job,
    lint_spec,
)


class SubtractingBlockSpec(BlockSpec):
    """A deliberately non-commutative global combine."""

    def num_partitions(self):
        return 2

    def init_state(self):
        return 0.0

    def local_solve(self, part_id, state, *, max_local_iters):
        return LocalSolveReport(partition=part_id, updates=1.0,
                                local_iters=1, per_iter_ops=[1.0])

    def global_combine(self, state, reports):
        acc = state
        for r in reports:
            acc -= r.updates
        return acc, 1.0, 0

    def global_converged(self, prev_state, curr_state):
        return True, 0.0


class SummingBlockSpec(SubtractingBlockSpec):
    """The commutative twin — must lint clean."""

    def global_combine(self, state, reports):
        acc = state
        for r in reports:
            acc += r.updates
        return acc, 1.0, 0


class PlainKVSpec(AsyncMapReduceSpec):
    """A minimal KV spec with none of the columnar hooks."""

    def lmap(self, key, value, ctx):
        ctx.emit_local_intermediate(key, value)

    def lreduce(self, key, values, ctx):
        ctx.emit_local(key, sum(values))

    def greduce(self, key, values, ctx):
        ctx.emit(key, sum(values))

    def initial_state(self):
        return {}

    def num_partitions(self):
        return 2

    def partition_input(self, part_id, state):
        return [(part_id, 1.0)]

    def state_from_output(self, output, prev_state):
        return dict(output)

    def local_converged(self, prev_table, curr_table):
        return True

    def global_converged(self, prev_state, curr_state):
        return True, 0.0


class TestHazards:
    def test_captured_lock_flagged(self):
        findings = lint_callable(fixtures.make_locked_map(), "map")
        assert any(f.code == "RPR031" and "synchronization" in f.message
                   for f in findings)

    def test_captured_live_rng_flagged(self):
        findings = lint_callable(fixtures.make_live_rng_map(), "map")
        assert any(f.code == "RPR031" and "RNG" in f.message
                   for f in findings)

    def test_captured_open_file_flagged(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("x")
        findings = lint_callable(fixtures.make_file_map(str(path)), "map")
        assert any(f.code == "RPR031" and "file" in f.message
                   for f in findings)

    def test_plain_data_closure_clean(self):
        findings = lint_callable(fixtures.make_scaled_map(2.0), "map")
        assert not [f for f in findings if f.code == "RPR031"]

    def test_unpicklable_capture_flagged(self):
        import threading

        unpicklable = {"inner": threading.Lock()}

        def nested_map(key, value, ctx, _bag=unpicklable):
            ctx.emit(key, value)

        findings = lint_callable(nested_map, "map")
        assert any(f.code == "RPR031" for f in findings)

    def test_cluster_handle_flagged(self):
        from repro.cluster import SimCluster

        cluster = SimCluster()

        def handle_map(key, value, ctx, _c=cluster):
            ctx.emit(key, value)

        findings = lint_callable(handle_map, "map")
        assert any(f.code == "RPR031" and "SimCluster" in f.message
                   for f in findings)


class TestLintSpec:
    def test_bundled_kv_spec_clean(self, small_graph, small_partition):
        report = lint_spec(PageRankKVSpec(small_graph, small_partition))
        assert report.ok
        assert not report.findings

    def test_bundled_block_spec_clean(self, small_graph, small_partition):
        assert lint_spec(PageRankBlockSpec(small_graph, small_partition)).ok

    def test_stateful_spec_flagged(self):
        report = lint_spec(fixtures.StatefulSpec())
        codes = {f.code for f in report.findings}
        assert "RPR011" in codes
        assert not report.ok

    def test_subtracting_combine_flagged(self):
        report = lint_spec(SubtractingBlockSpec())
        assert any(f.code == "RPR021" for f in report.findings)
        assert report.errors

    def test_summing_combine_clean(self):
        assert not [f for f in lint_spec(SummingBlockSpec()).findings
                    if f.code == "RPR021"]

    def test_columnar_explainer_info(self):
        # A KV spec without columnar hooks gets RPR041 info findings —
        # never errors, never warnings.
        report = lint_spec(PlainKVSpec())
        infos = [f for f in report.findings if f.code == "RPR041"]
        assert infos
        assert all(f.severity is Severity.INFO for f in infos)
        assert report.ok

    def test_per_record_local_loop_explained(self, small_graph,
                                             small_partition):
        # A spec that names no local_agg runs every local iteration
        # record by record; one that declares the block step does not.
        def local_infos(spec):
            return [f for f in lint_spec(spec).findings
                    if f.code == "RPR041" and "local_agg" in f.message]

        [info] = local_infos(PlainKVSpec())
        assert info.severity is Severity.INFO
        assert "local_step" in info.message  # the one hook to write
        assert not local_infos(PageRankKVSpec(small_graph, small_partition))

    def test_kv_spec_that_is_a_block_spec_still_explained(
            self, small_graph, small_partition):
        # A KV spec subclasses its app's block spec; being a BlockSpec
        # must not drop it out of the columnar explainer.
        class ObjectPathPageRank(PageRankKVSpec):
            supports_columnar = False

        spec = ObjectPathPageRank(small_graph, small_partition)
        assert isinstance(spec, BlockSpec)
        [info] = [f for f in lint_spec(spec).findings if f.code == "RPR041"]
        assert "supports_columnar" in info.message
        assert info.severity is Severity.INFO


class TestLintJob:
    def test_wordcount_job_clean(self):
        report = lint_job(wordcount_job())
        assert report.ok  # RPR041 infos allowed

    def test_bad_map_flagged(self):
        job = Job(map_fn=fixtures.clock_map, reduce_fn="sum",
                  conf=JobConf(name="bad"))
        report = lint_job(job)
        assert any(f.code == "RPR001" for f in report.findings)

    def test_combine_role_applied_to_combine_fn(self):
        job = Job(map_fn=fixtures.sleepy_map,
                  reduce_fn=fixtures.summing_combine,
                  combine_fn=fixtures.subtracting_combine,
                  conf=JobConf(name="subtract"))
        report = lint_job(job)
        assert any(f.code == "RPR021"
                   and "subtracting_combine" in f.function
                   for f in report.findings)

    def test_engine_backend_spec_followed(self, small_graph, small_partition):
        backend = EngineBackend(PageRankKVSpec(small_graph, small_partition),
                                num_reducers=2)
        try:
            report = lint_backend(backend)
        finally:
            backend.runtime.close()
        assert report.ok
        assert "PageRankKVSpec" in report.subject


class TestLintReport:
    def test_clean_report_formats_as_one_line(self):
        assert LintReport(subject="test", findings=()).format() == "test: clean"

    def test_report_format_lists_findings_then_a_summary(self):
        report = lint_job(Job(map_fn=fixtures.clock_map, reduce_fn="sum",
                              combine_fn=fixtures.subtracting_combine,
                              conf=JobConf(name="bad")))
        lines = report.format().splitlines()
        assert lines[:-1] == [f.format() for f in report.findings]
        assert lines[-1] == (
            f"{report.subject}: {len(report)} findings "
            f"({len(report.errors)} errors, {len(report.warnings)} warnings)")
        assert len(report.errors) >= 2  # RPR001 and RPR021
