"""Tests for the local MapReduce loop (Figure 1) and the emitters."""

from __future__ import annotations

import pytest

from repro.core import (
    AsyncMapReduceSpec,
    LocalMapContext,
    LocalReduceContext,
    run_local_mapreduce,
)
from repro.engine import TaskContext


class TestEmitters:
    def test_local_map_context(self):
        ctx = LocalMapContext()
        ctx.emit_local_intermediate("k", 1)
        assert ctx.intermediate == [("k", 1)]
        assert ctx.ops == 1.0
        ctx.add_ops(5)
        assert ctx.ops == 6.0
        with pytest.raises(ValueError):
            ctx.add_ops(-1)

    def test_local_reduce_context(self):
        ctx = LocalReduceContext()
        ctx.emit_local("k", 2)
        assert ctx.local_output == [("k", 2)]
        assert ctx.ops == 1.0

    def test_greduce_context_is_the_task_context(self):
        ctx = TaskContext("r0", 0)
        ctx.emit("k", 3)
        assert ctx.output == [("k", 3)]
        assert ctx.ops == 1.0

    @pytest.mark.parametrize("make", [LocalReduceContext,
                                      lambda: TaskContext("r0", 0)],
                             ids=["LocalReduceContext", "TaskContext"])
    def test_reduce_contexts_account_extra_ops(self, make):
        ctx = make()
        ctx.add_ops(2.5)
        ctx.add_ops(0)
        assert ctx.ops == 2.5
        with pytest.raises(ValueError, match="ops must be >= 0"):
            ctx.add_ops(-0.5)
        assert ctx.ops == 2.5


class CountdownSpec(AsyncMapReduceSpec):
    """Toy spec: every value decrements toward zero, one unit per local
    iteration.  Locally converged when all values reach zero."""

    def lmap(self, key, value, ctx):
        ctx.emit_local_intermediate(key, max(0, value - 1))

    def lreduce(self, key, values, ctx):
        ctx.emit_local(key, values[0])

    def greduce(self, key, values, ctx):
        ctx.emit(key, values[0])

    def initial_state(self):
        return {}

    def num_partitions(self):
        return 1

    def partition_input(self, part_id, state):
        return []

    def state_from_output(self, output, prev_state):
        return dict(output)

    def local_converged(self, prev_table, curr_table):
        return all(v == 0 for v in curr_table.values())

    def global_converged(self, prev, curr):
        return True, 0.0


class TestRunLocalMapReduce:
    def test_iterates_to_local_convergence(self):
        res = run_local_mapreduce(CountdownSpec(), [("a", 3), ("b", 1)],
                                  max_local_iters=100)
        assert res.table == {"a": 0, "b": 0}
        assert res.local_iters == 3  # bounded by the largest countdown
        assert res.converged

    def test_iteration_cap(self):
        res = run_local_mapreduce(CountdownSpec(), [("a", 10)],
                                  max_local_iters=4)
        assert res.local_iters == 4
        assert not res.converged
        assert res.table == {"a": 6}

    def test_single_iteration_is_general_mode(self):
        res = run_local_mapreduce(CountdownSpec(), [("a", 5)],
                                  max_local_iters=1)
        assert res.table == {"a": 4}
        assert res.local_iters == 1

    def test_per_iter_ops_recorded(self):
        res = run_local_mapreduce(CountdownSpec(), [("a", 2), ("b", 2)],
                                  max_local_iters=100)
        assert len(res.per_iter_ops) == res.local_iters
        assert all(op > 0 for op in res.per_iter_ops)
        assert res.total_ops == pytest.approx(sum(res.per_iter_ops))

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate key"):
            run_local_mapreduce(CountdownSpec(), [("a", 1), ("a", 2)],
                                max_local_iters=1)

    def test_bad_max_iters(self):
        with pytest.raises(ValueError):
            run_local_mapreduce(CountdownSpec(), [], max_local_iters=0)

    def test_entries_not_reemitted_persist(self):
        class Partial(CountdownSpec):
            def lmap(self, key, value, ctx):
                if key != "static":
                    ctx.emit_local_intermediate(key, max(0, value - 1))

            def local_converged(self, prev_table, curr_table):
                return curr_table.get("a") == 0

        res = run_local_mapreduce(Partial(), [("a", 2), ("static", 99)],
                                  max_local_iters=10)
        assert res.table["static"] == 99  # untouched entry survived
        assert res.table["a"] == 0
