"""Tests for the key partitioners and job counters."""

from __future__ import annotations

import itertools
import pickle
import struct
import sys
import threading
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    Counters,
    HashPartitioner,
    Job,
    JobConf,
    MapReduceRuntime,
    RangePartitioner,
    hash_buckets,
    partitioner,
    stable_hash,
)


def _fnv1a64(data: bytes) -> int:
    return reduce(lambda h, b: ((h ^ b) * 0x100000001B3) % 2**64, data,
                  0xCBF29CE484222325)


def reference_hash(key) -> int:
    """``stable_hash`` written again from its docstring: FNV-1a (64 bit)
    over a type tag and the key's bytes; tuples fold their items'
    hashes.  Shares no code with the engine and keeps no memo."""
    if isinstance(key, np.generic):
        key = key.item()
    if key is None:
        return _fnv1a64(b"\x00none")
    if key is True or key is False:
        return _fnv1a64(b"\x01\x01" if key else b"\x01\x00")
    if isinstance(key, int):
        if not -(2**127) <= key < 2**127:
            raise OverflowError("int too big to convert")
        return _fnv1a64(b"\x02" + (key % 2**128).to_bytes(16, "little"))
    if isinstance(key, float):
        return _fnv1a64(b"\x03" + struct.pack("<d", key))
    if isinstance(key, str):
        return _fnv1a64(b"\x04" + key.encode("utf-8"))
    if isinstance(key, bytes):
        return _fnv1a64(b"\x05" + key)
    if isinstance(key, tuple):
        return reduce(lambda h, item: ((h ^ reference_hash(item))
                                       * 0x100000001B3) % 2**64,
                      key, 0xCBF29CE484222325)
    raise TypeError(type(key).__name__)


@pytest.fixture()
def cold_memo():
    """The process-wide hash memo, emptied before and after the test."""
    partitioner._MEMO.clear()
    yield partitioner._MEMO
    partitioner._MEMO.clear()


key_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**127), max_value=2**127 - 1),
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.text(max_size=6),
    st.binary(max_size=6),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.floats(width=64).map(np.float64),
    st.text(max_size=4).map(np.str_),
)
hash_keys = st.recursive(
    key_scalars, lambda inner: st.lists(inner, max_size=4).map(tuple),
    max_leaves=8)

#: 64-bit values taken from the commit before the memo existed: which
#: reducer a key lands in is part of the engine's bitwise contract.
GOLDEN = [
    (0, 0xEBA8D4F0ABA80485),
    (1, 0x9CAABF289892EC44),
    (-1, 0xF0C2D6D76E6C5875),
    (1119, 0x1F6643A0B84300AE),
    (2**63, 0xA0D383BAF9230E05),
    (-(2**127), 0xEBA854F0ABA72B05),
    ("", 0xAF63B94C8601B113),
    ("rank", 0x5148B9B8D15637F9),
    ("é", 0xB929DD185A919CBB),
    (None, 0x5E1EDA593660D841),
    (True, 0x082F2307B4E88E77),
    (False, 0x082F2207B4E88CC4),
    (1.0, 0x79384A97B8FCA0CB),
    (-0.0, 0x796E5797B92A4652),
    (0.0, 0x796ED797B92B1FD2),
    (b"ab", 0xACBAEF1852751D23),
    ((1, "a"), 0x077ACD4F1235CA9F),
    (((1, 2), 3.5, None), 0x1A2C89D865452CDA),
    (("c", 7), 0x8AD6D2E7DE0D0B17),
    (np.int64(1), 0x9CAABF289892EC44),
    (np.float64(2.5), 0x797CAF97B9371936),
    (np.str_("é"), 0xB929DD185A919CBB),
]


class TestStableHashValues:
    """Absolute values: the memo may not move a key to another reducer."""

    @pytest.mark.parametrize("key, value", GOLDEN, ids=lambda x: repr(x)[:24])
    def test_golden(self, cold_memo, key, value):
        assert stable_hash(key) == value          # computed
        assert stable_hash(key) == value          # answered again
        assert reference_hash(key) == value

    @settings(deadline=None, max_examples=300)
    @given(hash_keys)
    def test_equals_the_reference(self, key):
        assert stable_hash(key) == reference_hash(key)

    @pytest.mark.parametrize("text", ["\x00", "a\x00", "é\x00\x00"])
    def test_numpy_str_hashes_as_its_python_value(self, cold_memo, text):
        # np.str_ subclasses str, but its value drops trailing NULs (as
        # an array element's does): np.str_("a\x00") hashes as "a"
        key = np.str_(text)
        assert stable_hash(key) == stable_hash(key.item()) == stable_hash(
            text.rstrip("\x00")) == reference_hash(key)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
    def test_equal_keys_of_different_types_keep_their_own_hash(
            self, cold_memo, order):
        # 1 == 1.0 == True == np.int64(1) are one dict key; whichever is
        # hashed first must not answer for the others.
        twins = [1, 1.0, True, np.int64(1)]
        want = [0x9CAABF289892EC44, 0x79384A97B8FCA0CB,
                0x082F2307B4E88E77, 0x9CAABF289892EC44]
        for _ in range(2):
            for i in order:
                assert stable_hash(twins[i]) == want[i]
        assert all(type(k) in (int, str) for k in cold_memo)

    @pytest.mark.parametrize("zeros", [(0.0, -0.0, 0, False),
                                       (False, 0, -0.0, 0.0),
                                       (0, -0.0, False, 0.0)])
    def test_zeros(self, cold_memo, zeros):
        want = {"0.0": 0x796ED797B92B1FD2, "-0.0": 0x796E5797B92A4652,
                "0": 0xEBA8D4F0ABA80485, "False": 0x082F2207B4E88CC4}
        for _ in range(2):
            for z in zeros:
                assert stable_hash(z) == want[repr(z)]

    def test_only_exact_int_and_str_are_memoised(self, cold_memo):
        class Id(int):
            pass

        for key in (7, "w", Id(7), np.str_("w"), 7.0, True, b"w", None):
            stable_hash(key)
        stable_hash((3, "t", 2.0))  # a tuple composes from memoised items
        assert sorted(cold_memo.items(), key=repr) == sorted(
            [(7, reference_hash(7)), ("w", reference_hash("w")),
             (3, reference_hash(3)), ("t", reference_hash("t"))], key=repr)
        assert all(type(k) in (int, str) for k in cold_memo)

    @pytest.mark.parametrize("key", [2**127, -(2**127) - 1, 2**200])
    def test_int_outside_128_bits_raises_and_is_not_cached(self, cold_memo, key):
        for _ in range(2):
            with pytest.raises(OverflowError):
                stable_hash(key)
            with pytest.raises(OverflowError):
                stable_hash((1, key))
        assert key not in cold_memo

    def test_memo_stays_within_its_bound(self, cold_memo, monkeypatch):
        monkeypatch.setattr(partitioner, "_MEMO_MAX", 50)
        keys = list(range(-60, 200)) + [f"w{i}" for i in range(130)]
        for sweep in range(2):
            for key in keys:
                assert stable_hash(key) == reference_hash(key)
                assert len(cold_memo) <= 50
        assert len(cold_memo) > 0

    def test_the_real_bound_is_a_constant_and_holds(self, cold_memo):
        bound = partitioner._MEMO_MAX
        assert isinstance(bound, int) and 1_120 < bound <= 1 << 20
        for key in range(bound + 10):
            stable_hash(key)
        assert 0 < len(cold_memo) <= bound
        for key in (0, bound - 1, bound + 9):
            assert stable_hash(key) == reference_hash(key)

    @pytest.mark.parametrize("warm", [False, True])
    def test_hash_buckets_is_still_the_columnar_twin(self, cold_memo, warm):
        keys = np.array([0, 1, -1, 1119, 2**40, -(2**40), 2**63 - 1,
                         -(2**63)], dtype=np.int64)
        for r in (1, 2, 7, 8):
            if warm:
                for k in keys.tolist():
                    stable_hash(k)
            want = [stable_hash(int(k)) % r for k in keys]
            assert hash_buckets(keys, r).tolist() == want
            assert want == [reference_hash(int(k)) % r for k in keys]

    def test_threads_racing_on_a_tiny_memo_never_see_a_wrong_value(
            self, cold_memo, monkeypatch):
        # More threads than cores, a switch interval short enough to
        # interleave lookups, and a bound small enough that clears race
        # with inserts: a lost update may cost a recompute, never a
        # value.
        monkeypatch.setattr(partitioner, "_MEMO_MAX", 16)
        keys = list(range(40)) + [f"k{i}" for i in range(40)]
        want = {k: reference_hash(k) for k in keys}
        wrong: list = []

        def worker(offset: int) -> None:
            for i in range(1_500):
                k = keys[(offset + 7 * i) % len(keys)]
                if stable_hash(k) != want[k]:
                    wrong.append(k)

        threads = [threading.Thread(target=worker, args=(3 * t,))
                   for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert len(cold_memo) <= 16 + len(threads)


class TestStableHash:
    def test_deterministic_per_type(self):
        assert stable_hash("word") == stable_hash("word")
        assert stable_hash(42) == stable_hash(42)
        assert stable_hash(3.14) == stable_hash(3.14)
        assert stable_hash((1, "a")) == stable_hash((1, "a"))

    def test_types_do_not_collide_trivially(self):
        # 1 (int), 1.0 (float), "1" (str) should hash differently
        values = {stable_hash(1), stable_hash("1"), stable_hash(1.0)}
        assert len(values) == 3

    def test_none_and_bool(self):
        assert stable_hash(None) == stable_hash(None)
        assert stable_hash(True) != stable_hash(False)

    def test_bytes(self):
        assert stable_hash(b"ab") == stable_hash(b"ab")
        assert stable_hash(b"ab") != stable_hash("ab")

    def test_numpy_scalars_match_python(self):
        assert stable_hash(np.int64(7)) == stable_hash(7)
        assert stable_hash(np.float64(2.5)) == stable_hash(2.5)

    def test_nested_tuples(self):
        assert stable_hash(((1, 2), 3)) == stable_hash(((1, 2), 3))

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError, match="no stable hash"):
            stable_hash(object())

    def test_spread_over_buckets(self):
        # 1000 string keys should spread reasonably over 8 buckets
        part = HashPartitioner()
        counts = np.zeros(8, dtype=int)
        for i in range(1000):
            counts[part(f"key-{i}", 8)] += 1
        assert counts.min() > 60  # no pathological bucket


class TestHashPartitioner:
    def test_in_range(self):
        p = HashPartitioner()
        for key in ("a", 1, (2, "b")):
            assert 0 <= p(key, 5) < 5

    def test_invalid_reducers(self):
        with pytest.raises(ValueError):
            HashPartitioner()("k", 0)


class TestRangePartitioner:
    def test_routing(self):
        p = RangePartitioner([10, 20])
        assert p(5, 3) == 0
        assert p(10, 3) == 1
        assert p(15, 3) == 1
        assert p(25, 3) == 2

    def test_reducer_count_must_match(self):
        p = RangePartitioner([10])
        with pytest.raises(ValueError):
            p(5, 3)

    def test_unsorted_split_points_rejected(self):
        with pytest.raises(ValueError):
            RangePartitioner([20, 10])

    def test_arity_is_checked_on_every_record_with_the_same_message(self):
        p = RangePartitioner([10, 20])
        assert p(5, 3) == 0
        for bad in (2, 4):
            with pytest.raises(ValueError, match=(
                    "RangePartitioner with 2 split points requires 3 "
                    f"reducers, got {bad}")):
                p(5, bad)
        assert p(25, 3) == 2  # a rejected call leaves it usable

    def test_pickles(self):
        p = pickle.loads(pickle.dumps(RangePartitioner(["g", "p"])))
        assert [p(k, 3) for k in ("a", "g", "z")] == [0, 1, 2]


def _pair_map(key, value, ctx):
    ctx.emit(key, value)


def _block_map(key, value, ctx):
    ctx.emit_block(np.arange(8) + key, np.ones(8))


class _ConstantPartitioner:
    """A broken custom partitioner: every key to one fixed bucket."""

    def __init__(self, bucket):
        self.bucket = bucket

    def __call__(self, key, num_reducers):
        return self.bucket


class TestOutOfRangeBucket:
    """A custom partitioner's bucket outside ``[0, R)`` fails the job
    with one ``IndexError`` on every shuffle path.  The object path
    used to send bucket -1 to reducer R-1 (``buckets[-1]``) in silence,
    and to fail bucket R with the list's own message."""

    R = 3

    @pytest.mark.parametrize("bucket", [-1, -R, R])
    @pytest.mark.parametrize("map_fn,columnar", [
        (_pair_map, False),   # the object path
        (_block_map, False),  # columnar output forced down the object path
        (_block_map, True),   # the columnar path
    ], ids=["object", "forced-object", "columnar"])
    def test_the_job_raises(self, map_fn, columnar, bucket):
        job = Job(map_fn, "sum", partitioner=_ConstantPartitioner(bucket),
                  conf=JobConf(num_reducers=self.R, columnar=columnar))
        with MapReduceRuntime("serial") as rt:
            with pytest.raises(IndexError,
                               match=r"bucket outside \[0, 3\)"):
                rt.run(job, [[(k, 1.0)] for k in range(4)])

    def test_the_object_path_with_a_combiner_raises(self):
        job = Job(_pair_map, "sum", combine_fn="sum",
                  partitioner=_ConstantPartitioner(-1),
                  conf=JobConf(num_reducers=self.R, columnar=False,
                               combine_crossover=0))
        with MapReduceRuntime("serial") as rt:
            with pytest.raises(IndexError, match="outside"):
                rt.run(job, [[(k % 2, 1.0) for k in range(6)]])

    def test_an_in_range_custom_partitioner_still_routes(self):
        job = Job(_pair_map, "sum", partitioner=_ConstantPartitioner(2),
                  conf=JobConf(num_reducers=self.R, columnar=False))
        with MapReduceRuntime("serial") as rt:
            res = rt.run(job, [[(k, float(k))] for k in range(4)])
        assert sorted(res.output) == [(k, float(k)) for k in range(4)]


class TestCounters:
    def test_incr_and_get(self):
        c = Counters()
        c.incr("x")
        c.incr("x", 4)
        assert c.get("x") == 5
        assert c["x"] == 5

    def test_unknown_counter_zero(self):
        assert Counters().get("nope") == 0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counters().incr("x", -1)

    def test_merge_counters(self):
        a, b = Counters(), Counters()
        a.incr("x", 2)
        b.incr("x", 3)
        b.incr("y")
        a.merge(b)
        assert a.get("x") == 5 and a.get("y") == 1

    def test_merge_mapping(self):
        c = Counters()
        c.merge({"m": 7})
        assert c.get("m") == 7

    def test_as_dict_sorted(self):
        c = Counters()
        c.incr("b")
        c.incr("a")
        assert list(c.as_dict()) == ["a", "b"]

    def test_len(self):
        c = Counters()
        c.incr("a")
        c.incr("b")
        assert len(c) == 2
