"""Linting live objects and the lint="off"|"warn"|"strict" knob."""

from __future__ import annotations

import warnings

import lint_fixtures as fixtures
import numpy as np
import pytest

from repro.analysis import (
    LintError,
    LintReport,
    LintWarning,
    Severity,
    enforce,
    lint_backend,
    lint_callable,
    lint_job,
    lint_spec,
)
from repro.apps.pagerank import PageRankBlockSpec, PageRankKVSpec
from repro.apps.wordcount import wordcount_job
from repro.core import DriverConfig, Session
from repro.core.api import AsyncMapReduceSpec, BlockSpec, LocalSolveReport
from repro.core.loop import BlockBackend, EngineBackend
from repro.engine import MapReduceRuntime
from repro.engine.job import Job, JobConf


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
        assert not local_infos(PageRankKVSpec(small_graph, small_partition))


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


class TestEnforce:
    def _report(self, *findings):
        return LintReport(subject="test", findings=tuple(findings))

    def test_off_is_noop(self):
        report = lint_job(Job(map_fn=fixtures.clock_map, reduce_fn="sum",
                              conf=JobConf(name="bad")))
        assert enforce(report, "off") is report

    def test_warn_emits_lint_warnings(self):
        report = lint_job(Job(map_fn=fixtures.clock_map, reduce_fn="sum",
                              conf=JobConf(name="bad")))
        with pytest.warns(LintWarning, match="RPR001"):
            enforce(report, "warn")

    def test_strict_raises_on_errors(self):
        report = lint_job(Job(map_fn=fixtures.clock_map, reduce_fn="sum",
                              conf=JobConf(name="bad")))
        with pytest.raises(LintError, match="RPR001") as exc_info:
            enforce(report, "strict")
        assert exc_info.value.report is report

    def test_strict_passes_clean_report(self):
        report = lint_job(wordcount_job())
        assert enforce(report, "strict") is report

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="lint must be one of"):
            enforce(self._report(), "aggressive")

    def test_clean_report_formats_as_one_line(self):
        assert self._report().format() == "test: clean"

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


class TestRuntimeKnob:
    def test_jobconf_validates_lint(self):
        with pytest.raises(ValueError, match="lint must be"):
            JobConf(lint="strictest")

    def test_strict_rejects_before_any_task(self):
        calls = []

        def counting_bad_map(key, value, ctx):
            calls.append(key)
            ctx.emit(key, np.random.rand())

        job = Job(map_fn=counting_bad_map, reduce_fn="sum",
                  conf=JobConf(name="bad", lint="strict"))
        with MapReduceRuntime("serial") as rt:
            with pytest.raises(LintError):
                rt.run(job, [[(0, 1.0)], [(1, 2.0)]])
        assert calls == []  # rejected before any task executed

    def test_warn_still_runs(self):
        job = Job(map_fn=fixtures.clock_map, reduce_fn="sum",
                  conf=JobConf(name="warny", lint="warn"))
        with MapReduceRuntime("serial") as rt:
            with pytest.warns(LintWarning):
                result = rt.run(job, [[(0, 1.0)]])
        assert result.output

    def test_off_by_default(self):
        job = Job(map_fn=fixtures.clock_map, reduce_fn="sum",
                  conf=JobConf(name="quiet"))
        with MapReduceRuntime("serial") as rt:
            with warnings.catch_warnings():
                warnings.simplefilter("error", LintWarning)
                rt.run(job, [[(0, 1.0)]])


class TestSessionKnob:
    def test_submit_strict_rejects_noncommutative_combiner(self):
        spec = SubtractingBlockSpec()
        with Session() as session:
            with pytest.raises(LintError, match="RPR021"):
                session.submit(BlockBackend(spec), DriverConfig(),
                               lint="strict")
            assert session.jobs == []  # nothing was admitted

    def test_submit_strict_accepts_clean_spec(self):
        with Session() as session:
            handle = session.submit(BlockBackend(SummingBlockSpec()),
                                    DriverConfig(), lint="strict")
            assert handle in session.jobs

    def test_config_lint_default_applies(self):
        cfg = DriverConfig(lint="strict")
        with Session() as session:
            with pytest.raises(LintError):
                session.submit(BlockBackend(SubtractingBlockSpec()), cfg)

    def test_submit_overrides_config_lint(self):
        cfg = DriverConfig(lint="strict")
        with Session() as session:
            handle = session.submit(BlockBackend(SubtractingBlockSpec()),
                                    cfg, lint="off")
            assert handle in session.jobs

    def test_driverconfig_validates_lint(self):
        with pytest.raises(ValueError, match="lint must be one of"):
            DriverConfig(lint="loose")
