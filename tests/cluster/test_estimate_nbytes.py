"""``estimate_nbytes`` against the rules it abbreviates.

Sizes feed ``sim_seconds`` (shuffle and state-store charges), so the
exact-type table in :mod:`repro.cluster.dfs` may not move a single
byte: the ``isinstance`` chain the function used to be is kept here as
the reference, and surprising entries are pinned as they are, not
"fixed".  The second half pins the object map task's one-pass
measurement (``TaskResult.nbytes``) to ``shuffle_bytes`` of its buckets.
"""

from __future__ import annotations

import enum
from collections import OrderedDict, defaultdict, namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import estimate_nbytes
from repro.engine import HashPartitioner, run_map_task, shuffle_bytes


def reference_nbytes(obj) -> int:
    """The ``isinstance`` chain ``estimate_nbytes`` was before the table."""
    if obj is None:
        return 1
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return 8
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, bytes):
        return len(obj)
    if isinstance(obj, dict):
        return sum(reference_nbytes(k) + reference_nbytes(v)
                   for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(reference_nbytes(x) for x in obj)
    return 32


# -- strategies ---------------------------------------------------------

_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_floats = st.floats(allow_nan=True, allow_infinity=True, width=64)
_small_ints = st.integers(min_value=-100, max_value=100)

hashable_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    _floats,
    _text,
    st.text(alphabet="abcxyz", max_size=6),
    st.binary(max_size=6),
    _small_ints.map(np.int64),
    _small_ints.map(np.int8),
    _floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
    _text.map(np.str_),
)
arrays = st.one_of(
    st.lists(_floats, max_size=4).map(np.array),
    st.lists(_small_ints, max_size=4).map(lambda xs: np.array(xs, np.int16)),
    _floats.map(np.array),  # 0-d
)
hashables = st.recursive(
    hashable_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3).map(tuple),
                            st.frozensets(inner, max_size=3)),
    max_leaves=6)
values = st.recursive(
    st.one_of(hashable_scalars, arrays),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(hashables, inner, max_size=3),
        st.sets(hashables, max_size=3),
        st.frozensets(hashables, max_size=3)),
    max_leaves=12)


class TestAgainstTheReference:
    @settings(deadline=None, max_examples=300)
    @given(values)
    def test_every_value_sizes_as_the_isinstance_chain_did(self, value):
        assert estimate_nbytes(value) == reference_nbytes(value)

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.tuples(hashables, values), max_size=6))
    def test_a_bucket_of_records(self, pairs):
        want = sum(reference_nbytes(k) + reference_nbytes(v) for k, v in pairs)
        assert shuffle_bytes([[pairs]]) == want
        assert estimate_nbytes(pairs) == want


class Point(namedtuple("Point", "x y label")):
    pass


class Colour(enum.IntEnum):
    RED = 1


class Tagged(np.ndarray):
    pass


class TestPinnedEntries:
    """Named traps, as they are today."""

    @pytest.mark.parametrize("value, nbytes", [
        (None, 1),
        (True, 8),
        (False, 8),
        (0, 8),
        (2**200, 8),                 # any int width is one word
        (1.5, 8),
        (float("nan"), 8),
        (np.int8(3), 8),
        (np.float32(2.0), 8),
        (np.float64(2.0), 8),        # a float subclass: misses the table
        (np.bool_(True), 32),        # not an np.integer: the fallback
        (1 + 2j, 32),
        (bytearray(b"abc"), 32),     # not bytes: the fallback
        (b"abc", 3),
        (memoryview(b"abc"), 32),
        ("", 0),
        ("rank", 4),
        ("é", 2),
        ("€\U0001f600", 7),
        (np.str_("é"), 2),           # a str subclass
        (Colour.RED, 8),             # an int subclass
        (Point(1, 2.0, "ab"), 18),   # a tuple subclass: its fields
        (OrderedDict(a=1, bc=(2, 3)), 27),
        (defaultdict(list, {1: [1.0, None]}), 17),
        (np.zeros(3), 24),
        (np.zeros((2, 2), dtype=np.int16), 8),
        (np.array(7.0), 8),          # 0-d
        (np.zeros(4).view(Tagged), 32),
        ((), 0),
        ([], 0),
        ({}, 0),
        (("rank", 0.25), 12),
        ((1, ("c", 0.5), [None, "é"]), 20),
        ({"k": {"n": [1, 2]}}, 18),
        ({1, 2, 3}, 24),
        (frozenset({"ab"}), 2),
        (object(), 32),
        (range(3), 32),
    ])
    def test_size(self, value, nbytes):
        assert estimate_nbytes(value) == nbytes == reference_nbytes(value)

    def test_lone_surrogate_still_refuses_to_encode(self):
        with pytest.raises(UnicodeEncodeError):
            estimate_nbytes("\ud800")
        with pytest.raises(UnicodeEncodeError):
            estimate_nbytes(("\ud800", 1))


# -- the object map task measures what shuffle_bytes measures -----------

KEYS = {
    "str": lambda i: f"k{i % 7}" if i % 3 else f"clé{i % 7}",
    "tuple": lambda i: ("c", i % 5, float(i % 2)),
}
VALUES = {
    "list": lambda i: [i, "x", 0.5],
    "dict": lambda i: {"n": i, "tags": ("a", "é")},
    "ndarray": lambda i: np.arange(i % 4, dtype=np.float64),
    "none": lambda i: None,
    "nested": lambda i: ("rank", (i, (0.25, None)), ["c"]),
    "float": lambda i: 0.5 * i,
    "row": lambda i: (0.5 * i, 1.0),
}
N_RECORDS = 90  # past the combine crossover


def _emit_all(keys, values):
    def map_fn(_key, _value, ctx):
        for i in range(N_RECORDS):
            ctx.emit(KEYS[keys](i), VALUES[values](i))
    return map_fn


class TestMapTaskMeasuresInOnePass:
    @pytest.mark.parametrize("values", ["list", "dict", "ndarray", "none",
                                        "nested", "float", "row"])
    @pytest.mark.parametrize("keys", ["str", "tuple"])
    def test_nbytes_is_shuffle_bytes_of_the_buckets(self, keys, values):
        res = run_map_task(0, 0, [(0, None)], _emit_all(keys, values), None,
                           HashPartitioner(), 4, None, False)
        assert sum(len(b) for b in res.data) == N_RECORDS
        assert res.nbytes == shuffle_bytes([res.data]) > 0
        assert res.nbytes == sum(reference_nbytes(k) + reference_nbytes(v)
                                 for b in res.data for k, v in b)

    @pytest.mark.parametrize("agg", ["sum", "min"])
    @pytest.mark.parametrize("values", ["float", "row"])
    @pytest.mark.parametrize("keys", ["str", "tuple"])
    def test_with_a_named_combiner(self, keys, values, agg):
        res = run_map_task(0, 0, [(0, None)], _emit_all(keys, values), agg,
                           HashPartitioner(), 4, None, False)
        assert 0 < sum(len(b) for b in res.data) < N_RECORDS  # it combined
        assert res.nbytes == shuffle_bytes([res.data]) > 0

    def test_buckets_hold_the_tuples_the_map_emitted(self):
        res = run_map_task(0, 0, [(0, None)], _emit_all("str", "nested"), None,
                           HashPartitioner(), 3, None, False)
        want = [(KEYS["str"](i), VALUES["nested"](i)) for i in range(N_RECORDS)]
        part = HashPartitioner()
        for r, bucket in enumerate(res.data):
            assert bucket == [kv for kv in want if part(kv[0], 3) == r]
            assert all(type(pair) is tuple for pair in bucket)
