"""Tests for the spec API plumbing and gmap/greduce engine wrappers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GmapFunction, GreduceFunction, LocalSolveReport
from repro.core.gmap import local_iter_counter
from repro.core.localmr import run_local_mapreduce
from repro.engine import TaskContext, run_reduce_task
from repro.engine.counters import REDUCE_OPS

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
        assert ctx.counters.get(local_iter_counter(0)) == 2
        assert ctx.ops > 2  # local work charged to the task, past the 2 emits

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
            assert ctx.counters.get(local_iter_counter(0)) == local.local_iters


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
        # per group, in order: greduce's own ops (2.5, then one per
        # emit), then one per pair handed on
        assert ctx.ops == 2.5 + 1.0 + 1.0 + 2.0 + 2.5

    def test_a_group_that_emits_nothing_adds_no_ops(self):
        class Silent(CountdownSpec):
            def greduce(self, key, values, ctx):
                pass

        ctx = TaskContext("r0", 0)
        GreduceFunction(Silent())("a", [1, 2], ctx)
        assert ctx.output == []
        assert ctx.ops == 0.0

    def test_each_emitted_pair_costs_two_ops(self):
        class Fanout(CountdownSpec):
            def greduce(self, key, values, ctx):
                for v in values:
                    ctx.emit(key, v)

        greduce = GreduceFunction(Fanout())
        ctx = TaskContext("r0", 0)
        greduce("a", [1, 2, 3], ctx)
        assert ctx.ops == 6.0
        greduce("b", [4], ctx)
        assert ctx.ops == 8.0
        assert ctx.output == [("a", 1), ("a", 2), ("a", 3), ("b", 4)]

    def test_fractional_ops_land_in_task_order(self):
        class Fractional(CountdownSpec):
            def greduce(self, key, values, ctx):
                ctx.add_ops(0.1)
                ctx.emit(key, sum(values))
                ctx.add_ops(0.2)

        groups = [("a", [1, 2, 3]), ("b", [4]), ("c", []), ("d", [5, 6])]
        want_ops = 0.0                  # in the order the task adds them
        per_key = 0.0                   # each key's greduce as one subtotal
        for _, values in groups:
            want_ops += float(len(values))  # the reduce loop's group scan
            want_ops += 0.1
            want_ops += 1.0                 # the emit
            want_ops += 0.2
            want_ops += 1.0                 # the pair handed on
            per_key += float(len(values))
            per_key += 0.0 + 0.1 + 1.0 + 0.2
            per_key += 1.0
        res = run_reduce_task(0, 0, groups, GreduceFunction(Fractional()))
        assert res.data == [("a", 6), ("b", 4), ("c", 0), ("d", 11)]
        assert res.ops == want_ops
        assert res.counters.get(REDUCE_OPS) == int(want_ops)
        # A per-key subtotal rounds these amounts differently in the
        # last place.
        assert res.ops != per_key

    def test_a_greduce_that_emits_a_block_fails_the_task(self):
        class Blocky(CountdownSpec):
            def greduce(self, key, values, ctx):
                ctx.emit_block(np.array([0]), np.array([float(len(values))]))

        with pytest.raises(RuntimeError, match="reduce task r0"):
            run_reduce_task(0, 0, [("a", [1, 2])], GreduceFunction(Blocky()))
