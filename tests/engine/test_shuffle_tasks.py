"""Tests for shuffle grouping and task runners."""

from __future__ import annotations

import pickle

import pytest

from repro.engine import (
    FaultPlan,
    HashPartitioner,
    ShmBlockRef,
    ShuffleBuffer,
    SimulatedTaskFailure,
    TaskContext,
    run_map_task,
    run_reduce_task,
    shuffle,
    shuffle_bytes,
)
from repro.engine.counters import (
    COMBINE_INPUT_RECORDS,
    COMBINE_OUTPUT_RECORDS,
    MAP_INPUT_RECORDS,
    MAP_OPS,
    MAP_OUTPUT_RECORDS,
    REDUCE_INPUT_GROUPS,
    REDUCE_INPUT_RECORDS,
    REDUCE_OPS,
    REDUCE_OUTPUT_RECORDS,
)


class TestShuffle:
    def test_groups_all_values(self):
        buckets = [
            [[("a", 1)], [("b", 2)]],
            [[("a", 3)], [("c", 4)]],
        ]
        grouped = shuffle(buckets, 2)
        assert grouped[0] == [("a", [1, 3])]
        assert grouped[1] == [("b", [2]), ("c", [4])]

    def test_key_sorted(self):
        buckets = [[[("z", 1), ("a", 2), ("m", 3)]]]
        grouped = shuffle(buckets, 1)
        assert [k for k, _ in grouped[0]] == ["a", "m", "z"]

    def test_unsorted_preserves_first_seen_order(self):
        buckets = [[[("z", 1), ("a", 2)]]]
        grouped = shuffle(buckets, 1, sort_keys=False)
        assert [k for k, _ in grouped[0]] == ["z", "a"]

    def test_value_order_by_map_task(self):
        buckets = [
            [[("k", "m0-first"), ("k", "m0-second")]],
            [[("k", "m1")]],
        ]
        grouped = shuffle(buckets, 1)
        assert grouped[0][0][1] == ["m0-first", "m0-second", "m1"]

    def test_bucket_count_mismatch(self):
        with pytest.raises(ValueError, match="buckets"):
            shuffle([[[("a", 1)]]], 2)

    def test_invalid_reducers(self):
        with pytest.raises(ValueError):
            shuffle([], 0)

    def test_empty_input(self):
        assert shuffle([], 3) == [[], [], []]

    def test_shuffle_bytes_counts_keys_and_values(self):
        buckets = [[[("ab", 1)]]]  # 2 bytes key + 8 bytes int
        assert shuffle_bytes(buckets) == 10

    def test_no_key_lost_large(self):
        # every emitted key must appear exactly once across reducers
        import random

        rng = random.Random(0)
        keys = [f"k{rng.randrange(100)}" for _ in range(1000)]
        part = HashPartitioner()
        buckets = [[[] for _ in range(4)] for _ in range(3)]
        for i, k in enumerate(keys):
            buckets[i % 3][part(k, 4)].append((k, i))
        grouped = shuffle(buckets, 4)
        seen = {}
        for r in range(4):
            for k, vs in grouped[r]:
                assert k not in seen
                seen[k] = len(vs)
        assert sum(seen.values()) == 1000
        assert set(seen) == set(keys)


class TestShuffleBuffer:
    BUCKETS = [
        [[("a", 1)], [("b", 2)]],
        [[("a", 3)], [("c", 4)]],
        [[("d", 5)], [("b", 6)]],
    ]

    def test_in_order_matches_shuffle(self):
        buf = ShuffleBuffer(3, 2)
        for m, b in enumerate(self.BUCKETS):
            buf.add(m, b)
        assert buf.groups() == shuffle(self.BUCKETS, 2)

    def test_out_of_order_matches_shuffle(self):
        # completion order of map tasks must not change the grouping
        buf = ShuffleBuffer(3, 2)
        for m in (2, 0, 1):
            buf.add(m, self.BUCKETS[m])
        assert buf.groups() == shuffle(self.BUCKETS, 2)

    def test_complete_once_the_last_map_lands(self):
        buf = ShuffleBuffer(3, 2)
        buf.add(2, self.BUCKETS[2])
        assert not buf.complete  # parked: map 0 and 1 still missing
        buf.add(0, self.BUCKETS[0])
        assert not buf.complete
        buf.add(1, self.BUCKETS[1])
        assert buf.complete

    def test_incomplete_groups_raises(self):
        buf = ShuffleBuffer(2, 1)
        buf.add(0, [[("a", 1)]])
        with pytest.raises(RuntimeError, match="incomplete"):
            buf.groups()

    def test_duplicate_add_rejected(self):
        buf = ShuffleBuffer(2, 1)
        buf.add(0, [[("a", 1)]])
        with pytest.raises(ValueError, match="already added"):
            buf.add(0, [[("a", 1)]])

    def test_index_out_of_range(self):
        buf = ShuffleBuffer(2, 1)
        with pytest.raises(ValueError, match="out of range"):
            buf.add(2, [[("a", 1)]])

    def test_bucket_count_mismatch(self):
        buf = ShuffleBuffer(1, 2)
        with pytest.raises(ValueError, match="buckets"):
            buf.add(0, [[("a", 1)]])

    def test_zero_maps_complete_immediately(self):
        buf = ShuffleBuffer(0, 3)
        assert buf.complete
        assert buf.groups() == [[], [], []]

    def test_validation(self):
        with pytest.raises(ValueError):
            ShuffleBuffer(-1, 2)
        with pytest.raises(ValueError):
            ShuffleBuffer(1, 0)

    def test_unsorted_first_seen_order(self):
        buf = ShuffleBuffer(2, 1, sort_keys=False)
        buf.add(1, [[("a", 2)]])
        buf.add(0, [[("z", 1)]])
        # first-seen order follows map index, not arrival order
        assert [k for k, _ in buf.groups()[0]] == ["z", "a"]


def _refs(tag: str, sizes: "list[int]") -> "list[ShmBlockRef]":
    """Handles of per-reducer buckets of ``sizes`` records each.  No
    segment exists behind them: the buffer must never read a bucket."""
    return [ShmBlockRef(f"{tag}p{r}",
                        [((n,), "<i8", 0), ((n,), "<f8", 8 * n)], 16 * n)
            for r, n in enumerate(sizes)]


class TestShuffleBufferLocatesRefs:
    def test_runs_hold_the_refs_in_map_order(self):
        buf = ShuffleBuffer(3, 2)
        for m in (2, 0, 1):
            buf.add(m, _refs(f"m{m}a0", [4, 5]))
        assert buf.columnar
        runs = buf.columnar_runs()
        assert [[b.name for b in run.blocks] for run in runs] == [
            ["m0a0p0", "m1a0p0", "m2a0p0"], ["m0a0p1", "m1a0p1", "m2a0p1"]]
        assert all(run.sort_keys for run in runs)

    def test_invalidated_refs_are_replaced_by_the_replay(self):
        buf = ShuffleBuffer(3, 2, sort_keys=False, defer_merge=True)
        buf.add(1, _refs("m1a0", [4, 0]))
        buf.add(2, _refs("m2a0", [3, 3]))
        buf.add(0, _refs("m0a0", [2, 6]))
        assert buf.invalidate(1)
        assert not buf.complete
        buf.add(1, _refs("m1a3", [4, 0]))  # the replay attempt's buckets
        runs = buf.columnar_runs()
        assert [[b.name for b in run.blocks] for run in runs] == [
            ["m0a0p0", "m1a3p0", "m2a0p0"], ["m0a0p1", "m1a3p1", "m2a0p1"]]
        assert not any(run.sort_keys for run in runs)

    def test_all_empty_refs_stay_representation_neutral(self):
        buf = ShuffleBuffer(2, 2)
        buf.add(0, _refs("m0a0", [0, 0]))
        buf.add(1, [[("a", 1)], []])
        assert not buf.columnar
        assert buf.groups() == [[("a", [1])], []]


class TestTaskContext:
    def test_emit_collects_and_counts_ops(self):
        ctx = TaskContext("t", 0)
        ctx.emit("k", 1)
        ctx.emit("k2", 2)
        assert ctx.output == [("k", 1), ("k2", 2)]
        assert ctx.ops == 2.0

    def test_add_ops(self):
        ctx = TaskContext("t", 0)
        ctx.add_ops(10)
        assert ctx.ops == 10.0
        with pytest.raises(ValueError):
            ctx.add_ops(-1)

    def test_incr_counter(self):
        ctx = TaskContext("t", 0)
        ctx.incr("app.custom", 3)
        assert ctx.counters.get("app.custom") == 3

    def test_emit_pairs_is_one_emit_per_pair(self):
        pairs = [("k", 1), (("t", 2), [3]), ("k", None)]
        one_by_one, handed_over = TaskContext("t", 0), TaskContext("t", 0)
        for ctx in (one_by_one, handed_over):
            ctx.add_ops(2.0)
            ctx.emit("first", 0)
        for k, v in pairs:
            one_by_one.emit(k, v)
        handed_over.emit_pairs(pairs)
        assert handed_over.output == one_by_one.output
        assert handed_over.ops == one_by_one.ops == 6.0
        # the very tuples, not copies
        assert all(a is b for a, b in zip(handed_over.output[1:], pairs))

    def test_emit_pairs_takes_any_iterable(self):
        ctx = TaskContext("t", 0)
        ctx.emit_pairs((i, i * i) for i in range(4))
        ctx.emit_pairs([])
        assert ctx.output == [(0, 0), (1, 1), (2, 4), (3, 9)]
        assert ctx.ops == 4.0


def _emit_words(key, value, ctx):
    for w in value.split():
        ctx.emit(w, 1)


def _sum_reduce(key, values, ctx):
    ctx.emit(key, sum(values))


class TestRunMapTask:
    def test_output_bucketed_by_partitioner(self):
        res = run_map_task(0, 0, [(0, "a b a")], _emit_words, None,
                           HashPartitioner(), 4)
        all_pairs = [p for b in res.data for p in b]
        assert sorted(all_pairs) == [("a", 1), ("a", 1), ("b", 1)]
        part = HashPartitioner()
        for r, bucket in enumerate(res.data):
            for k, _ in bucket:
                assert part(k, 4) == r

    def test_counters(self):
        res = run_map_task(0, 0, [(0, "x y"), (1, "z")], _emit_words, None,
                           HashPartitioner(), 2)
        assert res.counters.get(MAP_INPUT_RECORDS) == 2
        assert res.counters.get(MAP_OUTPUT_RECORDS) == 3

    def test_combiner_aggregates(self):
        res = run_map_task(0, 0, [(0, "a a a b")], _emit_words, _sum_reduce,
                           HashPartitioner(), 1)
        pairs = sorted(res.data[0])
        assert pairs == [("a", 3), ("b", 1)]
        assert res.counters.get(COMBINE_OUTPUT_RECORDS) == 2

    def test_fault_injection(self):
        plan = FaultPlan(scripted={("map", 0): 1})
        with pytest.raises(SimulatedTaskFailure):
            run_map_task(0, 0, [], _emit_words, None, HashPartitioner(), 1, plan)
        # attempt 1 succeeds (deterministic replay)
        res = run_map_task(0, 1, [(0, "a")], _emit_words, None,
                           HashPartitioner(), 1, plan)
        assert res.data[0] == [("a", 1)]

    def test_nbytes_measured_worker_side(self):
        res = run_map_task(0, 0, [(0, "ab")], _emit_words, None,
                           HashPartitioner(), 2)
        assert res.nbytes == shuffle_bytes([res.data])
        assert res.nbytes == 10  # 2-byte key + 8-byte int

    def test_ops_include_input_and_emissions(self):
        res = run_map_task(0, 0, [(0, "a b")], _emit_words, None,
                           HashPartitioner(), 1)
        assert res.ops == pytest.approx(1 + 2)  # 1 record + 2 emits

    def test_a_user_partitioner_is_called_once_per_record(self):
        calls = []

        def spy(key, num_reducers):
            calls.append((key, num_reducers))
            return len(key) % num_reducers

        res = run_map_task(0, 0, [(0, "a bb a ccc")], _emit_words, None,
                           spy, 2)
        assert calls == [("a", 2), ("bb", 2), ("a", 2), ("ccc", 2)]
        assert res.data == [[("bb", 1)], [("a", 1), ("a", 1), ("ccc", 1)]]
        assert res.nbytes == shuffle_bytes([res.data]) == 7 + 4 * 8

    def test_combiner_counters_and_ops(self):
        res = run_map_task(0, 0, [(0, "a a a b")], _emit_words, _sum_reduce,
                           HashPartitioner(), 1)
        assert res.counters.get(COMBINE_INPUT_RECORDS) == 4
        assert res.counters.get(COMBINE_OUTPUT_RECORDS) == 2
        # 1 input record + 4 emits, then the combiner: 4 scanned + 2 emitted
        assert res.ops == 11.0
        assert res.counters.get(MAP_OPS) == 11


class TestRunReduceTask:
    def test_reduces_groups(self):
        res = run_reduce_task(0, 0, [("a", [1, 2, 3]), ("b", [4])], _sum_reduce)
        assert res.data == [("a", 6), ("b", 4)]
        assert res.counters.get(REDUCE_INPUT_GROUPS) == 2

    def test_counters_and_ops_are_the_per_group_sums(self):
        def fractional(key, values, ctx):
            ctx.add_ops(0.1)            # ops need not be whole numbers
            ctx.incr("app.groups")
            ctx.emit(key, sum(values))

        groups = [("a", [1, 2, 3]), ("b", [4]), ("c", []), ("d", [5, 6])]
        want_ops = 0.0                  # in the order the task adds them
        for _, values in groups:
            want_ops += float(len(values))
            want_ops += 0.1
            want_ops += 1.0
        for given in (groups, iter(groups)):
            res = run_reduce_task(0, 0, given, fractional)
            assert res.counters.as_dict() == {
                "app.groups": 4,
                REDUCE_INPUT_GROUPS: 4,
                REDUCE_INPUT_RECORDS: 6,
                REDUCE_OPS: int(want_ops),
                REDUCE_OUTPUT_RECORDS: 4,
            }
            assert res.ops == want_ops
            assert res.nbytes == shuffle_bytes([[res.data]]) == 4 * 9

    def test_fault_injection(self):
        plan = FaultPlan(scripted={("reduce", 1): 2})
        with pytest.raises(SimulatedTaskFailure):
            run_reduce_task(1, 0, [], _sum_reduce, plan)
        with pytest.raises(SimulatedTaskFailure):
            run_reduce_task(1, 1, [], _sum_reduce, plan)
        res = run_reduce_task(1, 2, [("a", [1])], _sum_reduce, plan)
        assert res.data == [("a", 1)]


class TestFaultPlan:
    def test_none_never_fails(self):
        plan = FaultPlan.none()
        for attempt in range(5):
            plan.maybe_fail("map", 0, attempt)

    def test_script_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(scripted={("bogus", 0): 1})
        with pytest.raises(ValueError):
            FaultPlan(scripted={("map", -1): 1})

    def test_scripted_fails_exactly_the_counted_attempts(self):
        plan = FaultPlan(scripted={("map", 3): 2})
        for attempt in (0, 1):
            with pytest.raises(SimulatedTaskFailure, match="attempt"):
                plan.maybe_fail("map", 3, attempt)
        plan.maybe_fail("map", 3, 2)
        plan.maybe_fail("map", 2, 0)  # other tasks,
        plan.maybe_fail("reduce", 3, 0)  # other phases run clean

    def test_plan_pickles_to_an_equal_plan(self):
        plan = FaultPlan(scripted={("reduce", 1): 1},
                         stalls={("map", 0): 0.25})
        back = pickle.loads(pickle.dumps(plan))
        assert back == plan
        assert back.stall_seconds_for("map", 0, 0) == 0.25
        with pytest.raises(SimulatedTaskFailure):
            back.maybe_fail("reduce", 1, 0)

    def test_scripted_counts_must_be_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan(scripted={("map", 0): -1})

    def test_stall_delays_only_the_first_attempt(self):
        plan = FaultPlan(stalls={("map", 3): 0.5})
        assert plan.stall_seconds_for("map", 3, 0) == 0.5
        assert plan.stall_seconds_for("map", 3, 1) == 0.0  # retry / backup
        assert plan.stall_seconds_for("reduce", 3, 0) == 0.0
        assert plan.stall_seconds_for("map", 2, 0) == 0.0
        plan.maybe_fail("map", 3, 0)  # a stall is not a failure

    @pytest.mark.parametrize("stalls", [{("shuffle", 0): 1.0},
                                        {("map", -1): 1.0},
                                        {("reduce", 0): -0.5},
                                        # sleep(nan) raises, sleep(inf) hangs
                                        {("map", 0): float("nan")},
                                        {("map", 0): float("inf")}])
    def test_stall_validation(self, stalls):
        with pytest.raises(ValueError):
            FaultPlan(stalls=stalls)
