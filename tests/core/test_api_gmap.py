"""Tests for the spec API plumbing and gmap/greduce engine wrappers."""

from __future__ import annotations

import pytest

from repro.core import GmapFunction, GreduceFunction, LocalSolveReport
from repro.core.gmap import LOCAL_ITER_COUNTER, LOCAL_OPS_COUNTER
from repro.core.localmr import run_local_mapreduce
from repro.engine import TaskContext

from tests.core.test_localmr import CountdownSpec


class TestLocalSolveReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            LocalSolveReport(partition=0, updates=None, local_iters=-1)
        with pytest.raises(ValueError, match="per_iter_ops"):
            LocalSolveReport(partition=0, updates=None, local_iters=2,
                             per_iter_ops=[1.0])
        with pytest.raises(ValueError):
            LocalSolveReport(partition=0, updates=None, local_iters=0,
                             shuffle_bytes=-1)

    def test_update_nbytes_is_a_size_or_none(self):
        with pytest.raises(ValueError, match="update_nbytes"):
            LocalSolveReport(partition=0, updates=None, local_iters=0,
                             update_nbytes=-1)
        for nbytes in (None, 0, 64):
            report = LocalSolveReport(partition=0, updates=None,
                                      local_iters=0, update_nbytes=nbytes)
            assert report.update_nbytes == nbytes

    def test_total_ops(self):
        r = LocalSolveReport(partition=0, updates=None, local_iters=2,
                             per_iter_ops=[3.0, 4.0])
        assert r.total_ops == 7.0


class TestGmapFunction:
    def test_runs_local_loop_and_emits(self):
        gmap = GmapFunction(CountdownSpec(), max_local_iters=100)
        ctx = TaskContext("m0", 0)
        gmap(0, [("a", 2), ("b", 1)], ctx)
        assert dict(ctx.output) == {"a": 0, "b": 0}
        assert ctx.counters.get(LOCAL_ITER_COUNTER) == 2
        assert ctx.counters.get(LOCAL_OPS_COUNTER) > 0
        assert ctx.ops > 0  # local work charged to the task

    def test_general_mode_single_step(self):
        gmap = GmapFunction(CountdownSpec(), max_local_iters=1)
        ctx = TaskContext("m0", 0)
        gmap(0, [("a", 3)], ctx)
        assert dict(ctx.output) == {"a": 2}

    def test_invalid_max_iters(self):
        with pytest.raises(ValueError):
            GmapFunction(CountdownSpec(), max_local_iters=0)

    def test_columnar_needs_a_spec_that_supports_it(self):
        with pytest.raises(ValueError, match="CountdownSpec does not support"):
            GmapFunction(CountdownSpec(), max_local_iters=5, columnar=True)

    def test_custom_gmap_emit(self):
        class Custom(CountdownSpec):
            def gmap_emit(self, table, part_id):
                return [(("tagged", k), v) for k, v in table.items()]

        gmap = GmapFunction(Custom(), max_local_iters=10)
        ctx = TaskContext("m0", 0)
        gmap(0, [("a", 1)], ctx)
        assert ctx.output == [(("tagged", "a"), 0)]

    def test_ops_are_the_local_work_plus_one_per_emitted_pair(self):
        class Lazy(CountdownSpec):
            def gmap_emit(self, table, part_id):
                return ((k, v) for k, v in table.items())  # not a list

        xs = [("a", 2), ("b", 1), ("c", 0)]
        for spec in (CountdownSpec(), Lazy()):
            ctx = TaskContext("m0", 0)
            GmapFunction(spec, max_local_iters=100)(0, xs, ctx)
            local = run_local_mapreduce(spec, xs, max_local_iters=100)
            assert ctx.output == [("a", 0), ("b", 0), ("c", 0)]
            assert ctx.ops == local.total_ops + 3.0
            assert ctx.counters.get(LOCAL_OPS_COUNTER) == int(local.total_ops)


class TestGreduceFunction:
    def test_delegates_to_spec(self):
        greduce = GreduceFunction(CountdownSpec())
        ctx = TaskContext("r0", 0)
        greduce("a", [5], ctx)
        assert ctx.output == [("a", 5)]
        assert ctx.ops >= 1

    def test_ops_are_greduce_ops_plus_one_per_emitted_pair(self):
        class Chatty(CountdownSpec):
            def greduce(self, key, values, ctx):
                ctx.add_ops(2.5)
                for v in values:
                    ctx.emit((key, v), v)

        greduce = GreduceFunction(Chatty())
        ctx = TaskContext("r0", 0)
        greduce("a", [5, 6], ctx)
        greduce("b", [], ctx)
        assert ctx.output == [(("a", 5), 5), (("a", 6), 6)]
        # per group: greduce's own ops (2.5 + its emits), then one per pair
        assert ctx.ops == (2.5 + 2.0) + 2.0 + 2.5
