"""Equivalence tests: the columnar shuffle fast path vs the object path.

The contract under test is *byte identity*: any workload expressed as
typed batches must produce exactly the same grouped inputs, combined
values, routed buckets, measured bytes, and job output as the same
logical pairs pushed through the object-at-a-time path — the object
path is the oracle, the columnar path is only allowed to be faster.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine import (
    ColumnarBlock,
    ColumnarReduce,
    HashPartitioner,
    Job,
    JobConf,
    MapReduceRuntime,
    ShuffleBuffer,
    TaskContext,
    hash_buckets,
    route_columnar,
    route_combine_columnar,
    run_map_task,
    run_reduce_task,
    shuffle,
    shuffle_bytes,
    stable_hash,
)
from repro.engine.columnar import (
    StringDictionary,
    group_columnar,
    object_combiner,
    object_reducer,
)
from repro.engine.counters import (
    COMBINE_INPUT_RECORDS,
    COMBINE_OUTPUT_RECORDS,
    MAP_OUTPUT_RECORDS,
    REDUCE_INPUT_RECORDS,
)


#: Where ``hash_buckets`` gains a byte round (the last key of a width,
#: the first of the next), the int64 top, and the same below zero.
_WIDTH_EDGES = sorted({edge + d for bits in range(8, 64, 8)
                       for edge in (2 ** bits, -(2 ** bits))
                       for d in (-1, 0, 1)}
                      | {0, 1, -1, 2 ** 63 - 1, -(2 ** 63)})


@st.composite
def _key_batches(draw):
    """An int64 batch whose widest key sits on or next to a byte
    boundary: all non-negative, or mixed-sign; possibly empty or a
    single key."""
    top = draw(st.sampled_from([e for e in _WIDTH_EDGES if e >= 0]))
    low = draw(st.sampled_from([0] + [e for e in _WIDTH_EDGES if e < 0]))
    edges = [e for e in _WIDTH_EDGES if low <= e <= top]
    body = draw(st.lists(st.integers(low, top) | st.sampled_from(edges),
                         max_size=12))
    return body + draw(st.sampled_from([[], [top], [low], [low, top]]))


def _random_block(rng, n, key_range=40, width=1):
    keys = rng.integers(-key_range, key_range, n)
    values = rng.random(n) if width == 1 else rng.random((n, width))
    return ColumnarBlock(keys, values)


class TestColumnarBlock:
    def test_validation(self):
        with pytest.raises(ValueError):
            ColumnarBlock(np.zeros((2, 2), dtype=np.int64), np.zeros(4))
        with pytest.raises(ValueError):
            ColumnarBlock(np.zeros(3, dtype=np.int64), np.zeros(4))
        with pytest.raises(ValueError):
            ColumnarBlock(np.zeros(2, dtype=np.int64), np.zeros((2, 2, 2)))

    def test_nbytes_is_dtype_math_and_matches_estimate(self):
        rng = np.random.default_rng(0)
        for width in (1, 2, 3):
            block = _random_block(rng, 100, width=width)
            assert block.nbytes == 8 * 100 + 8 * 100 * width
            # dtype math == the object-path estimate of the same pairs
            assert block.nbytes == shuffle_bytes([[block.to_pairs()]])

    def test_to_pairs_types(self):
        block = ColumnarBlock([1, 2], [[1.0, 2.0], [3.0, 4.0]])
        pairs = block.to_pairs()
        assert pairs == [(1, (1.0, 2.0)), (2, (3.0, 4.0))]
        assert isinstance(pairs[0][0], int)
        assert isinstance(pairs[0][1][0], float)

    def test_concat_rejects_mixed_widths(self):
        with pytest.raises(ValueError, match="mixed"):
            ColumnarBlock.concat([ColumnarBlock([1], [1.0]),
                                  ColumnarBlock([1], [[1.0, 2.0]])])

    def test_concat_rejects_mixed_key_kinds(self):
        with pytest.raises(ValueError, match="dictionary-encoded and plain"):
            ColumnarBlock.concat([ColumnarBlock(["a"], [1.0]),
                                  ColumnarBlock([1], [1.0])])

    def test_concat_merges_vocabularies_in_block_order(self):
        merged = ColumnarBlock.concat([ColumnarBlock(["b", "a"], [1.0, 2.0]),
                                       ColumnarBlock(["c", "b"], [3.0, 4.0])])
        assert merged.dictionary.decode(np.arange(3)) == ["b", "a", "c"]
        assert len(merged.dictionary) == 3
        assert merged.keys.tolist() == [0, 1, 2, 0]
        assert merged.to_pairs() == [("b", 1.0), ("a", 2.0), ("c", 3.0),
                                     ("b", 4.0)]

    def test_ids_must_lie_in_the_given_vocabulary(self):
        with pytest.raises(ValueError, match="out of range"):
            ColumnarBlock([0, 5], [1.0, 2.0], StringDictionary(["a"]))

    def test_dictionary_interns_only_strings(self):
        vocab = StringDictionary(["x"])
        with pytest.raises(TypeError, match="must be str"):
            vocab.intern(3)
        assert vocab.intern("x") == 0 and vocab.intern("y") == 1
        assert vocab.decode(np.array([1])) == ["y"] and len(vocab) == 2


class TestHashRouting:
    def test_hash_buckets_match_stable_hash(self):
        rng = np.random.default_rng(1)
        keys = np.concatenate([
            np.arange(-100, 100),
            rng.integers(-(2 ** 62), 2 ** 62, 500),
            np.array([0, -1, 2 ** 62, -(2 ** 62)]),
        ]).astype(np.int64)
        for r in (1, 2, 7, 64):
            expect = np.array([stable_hash(int(k)) % r for k in keys])
            assert np.array_equal(hash_buckets(keys, r), expect)

    @settings(deadline=None, max_examples=300)
    @given(_key_batches(), st.sampled_from([1, 2, 7, 64]))
    @example([], 3)
    @example([0], 2)
    @example([255], 7)
    @example([256], 7)
    @example([65535, 65536], 7)
    @example([2 ** 24 - 1], 64)
    @example([2 ** 24 + 1, 3], 64)
    @example([2 ** 56, 1], 7)
    @example([2 ** 63 - 1], 7)
    @example([-1, 2 ** 63 - 1], 7)
    @example([-(2 ** 63), 255], 2)
    def test_hash_buckets_folds_only_the_constant_rounds(self, keys, r):
        """The kernel sweeps as many byte rounds as the batch's widest
        key has bytes and folds the rest into one multiply: one round
        too many folded (or one too few swept) moves every key at the
        boundary, a sign-extension round skipped every negative one."""
        got = hash_buckets(np.array(keys, dtype=np.int64), r)
        assert got.dtype == np.int64 and got.shape == (len(keys),)
        assert got.tolist() == [stable_hash(k) % r for k in keys]
        part = HashPartitioner()
        assert got.tolist() == [part(k, r) for k in keys]

    def test_route_matches_object_buckets(self):
        rng = np.random.default_rng(2)
        block = _random_block(rng, 300)
        part = HashPartitioner()
        routed = route_columnar(block, 4, part)
        expect: list = [[] for _ in range(4)]
        for k, v in block.to_pairs():
            expect[part(k, 4)].append((k, v))
        for r in range(4):
            assert routed[r].to_pairs() == expect[r]

    def test_route_custom_partitioner_fallback(self):
        block = ColumnarBlock([0, 1, 2, 3], [0.0, 1.0, 2.0, 3.0])
        routed = route_columnar(block, 2, lambda k, r: k % r)
        assert routed[0].keys.tolist() == [0, 2]
        assert routed[1].keys.tolist() == [1, 3]

    def test_hash_partitioner_subclass_honoured(self):
        # an overridden __call__ must win over the vectorised FNV sweep
        class AllToZero(HashPartitioner):
            def __call__(self, key, num_reducers):
                return 0

        block = ColumnarBlock([3, 14, 15, 92], np.arange(4.0))
        routed = route_columnar(block, 4, AllToZero())
        assert len(routed[0]) == 4
        assert all(len(routed[r]) == 0 for r in (1, 2, 3))

    def test_non_integer_keys_rejected(self):
        # a forced int64 cast would merge keys the object path keeps
        # distinct (1.2 and 1.9 both truncating to 1)
        with pytest.raises(TypeError, match="integers"):
            ColumnarBlock(np.array([1.2, 1.9]), np.array([10.0, 20.0]))
        ColumnarBlock([], [])  # empty stays fine

    def test_string_keys_dictionary_encoded(self):
        # string keys are valid: the block interns them through a
        # StringDictionary and round-trips the original words
        block = ColumnarBlock(np.array(["b", "a", "b"], dtype=object),
                              [1.0, 2.0, 3.0])
        assert block.dictionary is not None
        assert block.keys.dtype == np.int64
        assert list(block.key_objects()) == ["b", "a", "b"]

    def test_route_rejects_out_of_range_partitioner(self):
        # a broken partitioner must fail loudly (the object path raises
        # IndexError), never silently drop records
        block = ColumnarBlock([0, 1, 2, 3], [0.0, 1.0, 2.0, 3.0])
        with pytest.raises(IndexError, match="outside"):
            route_columnar(block, 3, lambda k, r: k)
        with pytest.raises(IndexError, match="outside"):
            route_columnar(block, 3, lambda k, r: k - 2)


class TestCombine:
    @pytest.mark.parametrize("agg", ["sum", "min", "max"])
    @pytest.mark.parametrize("width", [1, 2])
    def test_matches_object_combiner_bitwise(self, agg, width):
        rng = np.random.default_rng(3)
        block = _random_block(rng, 400, key_range=25, width=width)
        [combined] = route_combine_columnar(block, 1, agg)

        # object oracle: group by first emission, combine per group
        groups: dict = {}
        for k, v in block.to_pairs():
            groups.setdefault(k, []).append(v)
        oracle = object_combiner(agg)

        class _Ctx:
            def __init__(self):
                self.out = []

            def emit(self, k, v):
                self.out.append((k, v))

        ctx = _Ctx()
        for k, vs in groups.items():
            oracle(k, vs, ctx)
        assert combined.to_pairs() == ctx.out  # order AND bitwise values

    @pytest.mark.parametrize("agg", ["sum", "min", "max"])
    @pytest.mark.parametrize("width", [1, 2])
    def test_small_groups_match_object_combiner_bitwise(self, agg, width):
        # Group sizes 1..9: the oracle answers a singleton without
        # reducing and everything else through reduceat, whose sums are
        # v0 + (v1 + v2 ...) for a few addends and pairwise from 8 — a
        # left fold would differ on these values.
        specials = [-0.0, 0.1, 1e16, -1e16, 0.3, float("inf"), 5e-324,
                    float("nan"), 0.7]
        keys, rows = [], []
        for size in range(1, 10):
            for j in range(size):
                keys.append(100 - size)  # first-emission order != key order
                rows.append([specials[(size + j) % 9] * (c + 1)
                             for c in range(width)])
        values = np.array(rows)[:, 0] if width == 1 else np.array(rows)
        block = ColumnarBlock(keys, values)
        [combined] = route_combine_columnar(block, 1, agg)

        groups: dict = {}
        for k, v in block.to_pairs():
            groups.setdefault(k, []).append(v)
        ctx = TaskContext("c", 0)
        oracle = object_combiner(agg)
        for k, vs in groups.items():
            oracle(k, vs, ctx)
        want = combined.to_pairs()
        assert [k for k, _ in ctx.output] == [k for k, _ in want]
        assert ([type(v) for _, v in ctx.output]
                == [float if width == 1 else tuple] * 9)
        assert (np.array([v for _, v in ctx.output]).tobytes()
                == np.array([v for _, v in want]).tobytes())

    def test_oracle_reducer_applies_finish_to_a_singleton(self):
        red = object_reducer(ColumnarReduce("sum", _plus_one))
        ctx = TaskContext("r", 0)
        red(3, [(1.5, -0.0)], ctx)
        red(4, [(1.5, 2.0), (0.5, 1.0)], ctx)
        red(5, [2.0], ctx)
        assert ctx.output == [(3, (2.5, 1.0)), (4, (3.0, 4.0)), (5, 3.0)]

    def test_unknown_agg_rejected(self):
        with pytest.raises(ValueError, match="unknown aggregation"):
            route_combine_columnar(ColumnarBlock([1], [1.0]), 1, "median")
        with pytest.raises(ValueError, match="unknown aggregation"):
            object_combiner("median")


def _plus_one(keys, rows):
    return rows + 1.0


def _emit_block_map(key, value, ctx):
    # value carries the (keys, values) batch for this split
    ctx.emit_block(*value)


def _mod_partitioner(key, num_reducers):
    return key % num_reducers


class _ReversedHash(HashPartitioner):
    """Overrides __call__, so the vectorised FNV sweep must not serve it."""

    def __call__(self, key, num_reducers):
        return num_reducers - 1 - super().__call__(key, num_reducers)


class TestFusedMapTail:
    """route_combine_columnar vs the unfused spelling and the object path."""

    @staticmethod
    def _object_path(keys, values, agg, partitioner, reducers):
        # columnar=False materialises the batch and runs the object
        # combiner then the per-pair router; crossover 0 forces the
        # combine on small batches.
        res = run_map_task(0, 0, [(0, (keys, values))], _emit_block_map, agg,
                           partitioner, reducers, None, False, 0)
        return res.data

    # Key pools whose spans need one, two and three 16-bit sort passes.
    @pytest.mark.parametrize("span", [40, 2 ** 16 + 5, 2 ** 32 + 5])
    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("agg", ["sum", "min", "max"])
    def test_matches_unfused_and_object_path(self, span, width, agg):
        rng = np.random.default_rng(11)
        pool = np.concatenate([[-3, span - 3], rng.integers(-3, span - 3, 30)])
        keys = rng.choice(pool, 400)
        values = rng.random(400) if width == 1 else rng.random((400, width))
        block = ColumnarBlock(keys, values)
        fused = route_combine_columnar(block, 4, agg)
        unfused = route_columnar(route_combine_columnar(block, 1, agg)[0], 4)
        assert sum(len(b) for b in fused) == len(np.unique(keys))
        for got, want in zip(fused, unfused):
            assert np.array_equal(got.keys, want.keys)
            assert np.array_equal(got.values, want.values)  # bitwise
        assert [b.to_pairs() for b in fused] == self._object_path(
            keys, values, agg, HashPartitioner(), 4)

    @pytest.mark.parametrize("partitioner",
                             [_mod_partitioner, _ReversedHash()])
    def test_non_default_partitioners(self, partitioner):
        rng = np.random.default_rng(12)
        keys = rng.choice(rng.integers(0, 2 ** 20, 25), 300)
        values = rng.random(300)
        fused = route_combine_columnar(ColumnarBlock(keys, values), 3, "sum",
                                       partitioner)
        for r, bucket in enumerate(fused):
            assert all(partitioner(k, 3) == r for k in bucket.keys.tolist())
        assert [b.to_pairs() for b in fused] == self._object_path(
            keys, values, "sum", partitioner, 3)

    def test_partitioner_called_once_per_distinct_key(self):
        # the object path partitions *after* the combiner: one call per
        # distinct key, in first-emission order
        calls = []

        def spy(key, num_reducers):
            calls.append(key)
            return key % num_reducers

        block = ColumnarBlock([7, 3, 7, 9, 3, 7], np.arange(6.0))
        route_combine_columnar(block, 2, "sum", spy)
        assert calls == [7, 3, 9]

    def test_dictionary_keys(self):
        words = ["pear", "fig", "pear", "apple", "fig", "pear", "kiwi"]
        keys = np.array(words, dtype=object)
        values = np.arange(7.0)
        fused = route_combine_columnar(ColumnarBlock(keys, values), 3, "sum")
        assert [b.to_pairs() for b in fused] == self._object_path(
            keys, values, "sum", HashPartitioner(), 3)

    def test_out_of_range_partitioner_raises(self):
        block = ColumnarBlock([0, 1, 2, 3, 3], np.arange(5.0))
        with pytest.raises(IndexError, match="outside"):
            route_combine_columnar(block, 3, "sum", lambda k, r: k)
        with pytest.raises(IndexError, match="outside"):
            route_combine_columnar(block, 3, "sum", lambda k, r: k - 2)

    def test_single_reducer_and_empty_block(self):
        block = ColumnarBlock([5, 1, 5], [1.0, 2.0, 4.0])
        [only] = route_combine_columnar(block, 1, "sum")
        assert only.to_pairs() == [(5, 5.0), (1, 2.0)]
        empties = route_combine_columnar(ColumnarBlock([], []), 3, "sum")
        assert [len(b) for b in empties] == [0, 0, 0]
        with pytest.raises(ValueError, match="num_reducers"):
            route_combine_columnar(block, 0, "sum")


class TestColumnarShuffleBuffer:
    """groups() byte-identity across every buffer behaviour."""

    def _blocks(self, rng, num_maps, num_reducers, *, width=1, empty=()):
        per_map = []
        for m in range(num_maps):
            if m in empty:
                block = ColumnarBlock(
                    [], np.empty((0, width)) if width > 1 else [])
            else:
                block = _random_block(rng, 50 + 10 * m, key_range=12,
                                      width=width)
            per_map.append(route_columnar(block, num_reducers))
        return per_map

    def _object_buckets(self, col_buckets):
        return [[b.to_pairs() for b in row] for row in col_buckets]

    @pytest.mark.parametrize("sort_keys", [True, False])
    @pytest.mark.parametrize("width", [1, 2])
    def test_groups_identical_to_object_shuffle(self, sort_keys, width):
        rng = np.random.default_rng(4)
        col = self._blocks(rng, 4, 3, width=width)
        assert (shuffle(col, 3, sort_keys=sort_keys)
                == shuffle(self._object_buckets(col), 3,
                           sort_keys=sort_keys))

    @pytest.mark.parametrize("order", [(2, 0, 3, 1), (3, 2, 1, 0)])
    def test_out_of_order_completion(self, order):
        rng = np.random.default_rng(5)
        col = self._blocks(rng, 4, 2)
        buf = ShuffleBuffer(4, 2)
        for m in order:
            buf.add(m, col[m])
        assert buf.columnar
        assert buf.groups() == shuffle(self._object_buckets(col), 2)

    def test_empty_buckets_and_empty_maps(self):
        rng = np.random.default_rng(6)
        col = self._blocks(rng, 3, 4, empty=(1,))
        assert shuffle(col, 4) == shuffle(self._object_buckets(col), 4)

    @pytest.mark.parametrize("agg", ["sum", "min"])
    def test_combiner_on_off(self, agg):
        """Map-side combining must not change grouped *keys*, and both
        paths must combine to bitwise-identical values."""
        rng = np.random.default_rng(7)
        raw = [_random_block(rng, 120, key_range=15) for _ in range(3)]
        col = [route_columnar(route_combine_columnar(b, 1, agg)[0], 2) for b in raw]
        obj = []
        for b in raw:
            res = run_map_task(0, 0, [(0, None)],
                               lambda k, v, ctx, _b=b: ctx.emit_block(
                                   _b.keys, _b.values),
                               agg, HashPartitioner(), 2, None, False)
            obj.append(res.data)
        assert shuffle(col, 2) == shuffle(obj, 2)
        # combiner off: plain routing equivalence
        col_off = [route_columnar(b, 2) for b in raw]
        obj_off = [[blk.to_pairs() for blk in row] for row in col_off]
        assert shuffle(col_off, 2) == shuffle(obj_off, 2)

    def test_mixing_representations_rejected(self):
        buf = ShuffleBuffer(2, 1)
        buf.add(0, [ColumnarBlock([1], [1.0])])
        with pytest.raises(ValueError, match="mix"):
            buf.add(1, [[("a", 1)]])
        buf2 = ShuffleBuffer(2, 1)
        buf2.add(0, [[("a", 1)]])
        with pytest.raises(ValueError, match="mix"):
            buf2.add(1, [ColumnarBlock([1], [1.0])])

    def test_empty_map_output_is_representation_neutral(self):
        # a map task that emitted nothing (empty split, drained
        # frontier) merges as a no-op in either mode — it must not drag
        # the shuffle into its default representation
        buf = ShuffleBuffer(3, 2)
        buf.add(0, [[], []])  # object-shaped empties first
        buf.add(1, [ColumnarBlock([1, 2], [1.0, 2.0]),
                    ColumnarBlock([3], [3.0])])
        buf.add(2, [ColumnarBlock([], []), ColumnarBlock([], [])])
        assert buf.columnar
        assert buf.groups() == [[(1, [1.0]), (2, [2.0])], [(3, [3.0])]]

    def test_conditionally_columnar_job_survives_empty_split(self):
        # end to end: a columnar job whose map emits blocks only when it
        # has records must not crash on an empty split
        def conditional(key, value, ctx):
            if len(value):
                ctx.emit_block(np.asarray(value), np.ones(len(value)))

        rt = MapReduceRuntime("serial")
        res = rt.run(Job(conditional, "sum"),
                     [[(0, [1, 2, 1])], [(1, [])]])
        assert res.as_dict() == {1: 2.0, 2: 1.0}

    def test_columnar_groups_requires_columnar_mode(self):
        buf = ShuffleBuffer(1, 1)
        buf.add(0, [[("a", 1)]])
        with pytest.raises(RuntimeError, match="object-mode"):
            buf.columnar_groups()

    def test_columnar_groups_aggregate(self):
        blocks = [ColumnarBlock([3, 1, 3], [1.0, 2.0, 3.0]),
                  ColumnarBlock([1, 3], [4.0, 5.0])]
        groups = group_columnar(blocks)
        keys, rows = groups.aggregate("sum")
        assert keys.tolist() == [1, 3]
        assert rows.tolist() == [6.0, 9.0]
        keys, rows = groups.aggregate("min")
        assert rows.tolist() == [2.0, 1.0]


def _sum_reduce(key, values, ctx):
    ctx.emit(key, sum(values))


class TestColumnarTasks:
    def test_map_task_fast_path_vs_oracle(self):
        rng = np.random.default_rng(8)
        batch = (rng.integers(0, 30, 200), rng.random(200))
        fast = run_map_task(0, 0, [(0, batch)], _emit_block_map, "sum",
                            HashPartitioner(), 4)
        oracle = run_map_task(0, 0, [(0, batch)], _emit_block_map, "sum",
                              HashPartitioner(), 4, None, False)
        assert all(isinstance(b, ColumnarBlock) for b in fast.data)
        assert [b.to_pairs() for b in fast.data] == oracle.data
        assert fast.nbytes == oracle.nbytes
        for c in (MAP_OUTPUT_RECORDS, COMBINE_INPUT_RECORDS,
                  COMBINE_OUTPUT_RECORDS):
            assert fast.counters.get(c) == oracle.counters.get(c)

    def test_map_task_rejects_mixed_emission(self):
        def bad(key, value, ctx):
            ctx.emit("k", 1)
            ctx.emit_block([1], [1.0])

        with pytest.raises(RuntimeError, match="mixed"):
            run_map_task(0, 0, [(0, None)], bad, None, HashPartitioner(), 1)

    def test_map_task_columnar_requires_named_combiner(self):
        def cmb(k, vs, ctx):
            ctx.emit(k, sum(vs))

        batch = (np.array([1, 2]), np.array([1.0, 2.0]))
        with pytest.raises(TypeError, match="named combiner"):
            run_map_task(0, 0, [(0, batch)], _emit_block_map, cmb,
                         HashPartitioner(), 1)

    def test_reduce_task_vectorised_vs_object(self):
        blocks = [ColumnarBlock([2, 1, 2, 5], [1.0, 2.0, 3.0, 4.0])]
        groups = group_columnar(blocks)
        vec = run_reduce_task(0, 0, groups, "sum")
        obj = run_reduce_task(0, 0, groups.to_pairs(), "sum")
        assert isinstance(vec.data, ColumnarBlock)
        assert vec.data.to_pairs() == obj.data
        assert vec.nbytes == obj.nbytes
        assert (vec.counters.get(REDUCE_INPUT_RECORDS)
                == obj.counters.get(REDUCE_INPUT_RECORDS) == 4)

    def test_reduce_task_finish_epilogue(self):
        def clamp(keys, rows):
            return np.minimum(rows, 2.5)

        groups = group_columnar([ColumnarBlock([1, 1, 2], [1.0, 2.0, 9.0])])
        res = run_reduce_task(0, 0, groups, ColumnarReduce("sum", clamp))
        assert res.data.to_pairs() == [(1, 2.5), (2, 2.5)]

    def test_reduce_task_callable_materialises_columnar_groups(self):
        groups = group_columnar([ColumnarBlock([1, 1, 2], [1.0, 2.0, 3.0])])
        res = run_reduce_task(0, 0, groups, _sum_reduce)
        assert res.data == [(1, 3.0), (2, 3.0)]


class TestColumnarJobs:
    """Whole-job equivalence through the runtime, all executors."""

    def _splits(self, num_splits=3, n=150):
        rng = np.random.default_rng(9)
        return [
            [(m, (rng.integers(0, 40, n), rng.random(n)))]
            for m in range(num_splits)
        ]

    @pytest.mark.parametrize("executor", ["serial", "threads"])
    @pytest.mark.parametrize("combine", [None, "sum"])
    def test_job_output_identical(self, executor, combine):
        splits = self._splits()
        with MapReduceRuntime(executor, workers=2) as rt:
            fast = rt.run(Job(_emit_block_map, "sum", combine_fn=combine,
                              conf=JobConf(num_reducers=3)), splits)
            oracle = rt.run(Job(_emit_block_map, "sum", combine_fn=combine,
                                conf=JobConf(num_reducers=3,
                                             columnar=False)), splits)
        assert fast.columnar_output is not None
        assert oracle.columnar_output is None
        assert fast.output == oracle.output
        # the columnar path measures output bytes for free (dtype math)
        # and must agree with the oracle estimate of the same pairs;
        # cluster-less object runs skip the scan entirely
        assert fast.output_nbytes == shuffle_bytes([[oracle.output]])
        assert oracle.output_nbytes == 0

    def test_threaded_pipeline_identical_to_serial(self):
        splits = self._splits()
        job = Job(_emit_block_map, "sum", combine_fn="sum",
                  conf=JobConf(num_reducers=4))
        with MapReduceRuntime("threads", workers=3) as rt:
            threads = rt.run(job, splits)
        serial = MapReduceRuntime("serial").run(job, splits)
        assert threads.output == serial.output

    def test_combiner_reduces_measured_shuffle_bytes(self):
        splits = self._splits(num_splits=2, n=400)
        rt = MapReduceRuntime("serial")
        from repro.engine.counters import SHUFFLE_BYTES

        with_c = rt.run(Job(_emit_block_map, "sum", combine_fn="sum"), splits)
        without = rt.run(Job(_emit_block_map, "sum"), splits)
        assert (with_c.counters.get(SHUFFLE_BYTES)
                < without.counters.get(SHUFFLE_BYTES))
        # pre-aggregation is invisible in the final result (up to float
        # association: the combiner sums per-task partials first)
        assert [k for k, _ in with_c.output] == [k for k, _ in without.output]
        assert np.allclose([v for _, v in with_c.output],
                           [v for _, v in without.output], rtol=1e-12)

    def test_worker_measured_bytes_match_oracle_scan(self):
        """TaskResult.nbytes (dtype math) == shuffle_bytes (full scan)."""
        splits = self._splits(num_splits=2)
        buf_bytes = []
        rt = MapReduceRuntime("serial")
        res = rt.run(Job(_emit_block_map, "sum"), splits)
        for m, split in enumerate(splits):
            task = run_map_task(m, 0, split, _emit_block_map, None,
                                HashPartitioner(), 8)
            buf_bytes.append((task.nbytes, shuffle_bytes([task.data])))
        assert all(measured == scanned for measured, scanned in buf_bytes)
        from repro.engine.counters import SHUFFLE_BYTES

        assert res.counters.get(SHUFFLE_BYTES) == sum(m for m, _ in buf_bytes)
