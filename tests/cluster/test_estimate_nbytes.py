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
from repro.engine import (
    HashPartitioner,
    run_map_task,
    run_reduce_task,
    shuffle_bytes,
)


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
        with pytest.raises(UnicodeEncodeError):
            estimate_nbytes([(1, "\ud800")])


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


# -- a task column in one call: the object reduce task's output ---------

class Label(str):
    pass


class Pair(tuple):
    pass


#: Leaves that miss the loop's two fast cases (an exact fixed-width
#: scalar, an exact ASCII ``str``), with their pinned sizes.
LEAF_SIZES = [
    ("é", 2),                    # non-ASCII str
    (np.str_("ab"), 2),          # a str subclass, ASCII
    (np.str_("é"), 2),
    (Label("abc"), 3),
    (True, 8),
    (None, 1),
    (np.float64(0.25), 8),
    (b"abc", 3),
    (np.bool_(True), 32),
    (Pair((1, "é")), 10),        # a tuple subclass: its fields
    ((0.5, "x"), 9),             # an exact tuple one level deeper
]
#: One strategy per leaf kind, each drawing a single exact type, so a
#: column drawn from one is uniform.
LEAVES = [
    _text,
    st.text(alphabet="abé€", max_size=4),
    st.text(alphabet="abc", max_size=4),
    _text.map(np.str_),
    _text.map(Label),
    st.booleans(),
    st.none(),
    _floats,
    _floats.map(np.float64),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.binary(max_size=4),
    st.booleans().map(np.bool_),
]
_leaves = st.one_of(*LEAVES)


def _nested(depth: int):
    """Values ``depth`` containers deep: tuples, tuple subclasses, lists."""
    inner = _leaves if depth == 1 else _nested(depth - 1)
    items = st.lists(st.one_of(_leaves, inner), max_size=3)
    return st.one_of(items.map(tuple), items.map(Pair), items)


_outputs = st.lists(
    st.tuples(_leaves, st.integers(1, 3).flatmap(_nested)), max_size=8)


def _shapes(depth: int):
    """Row strategies ``depth`` containers deep: every row drawn from one
    has the same containers and the same leaf kind in each place."""
    leaf = st.sampled_from(LEAVES)
    part = leaf if depth == 1 else st.one_of(leaf, _shapes(depth - 1))
    return st.tuples(st.lists(part, max_size=3),
                     st.sampled_from([tuple, Pair, list])).map(
        lambda shape: st.tuples(*shape[0]).map(shape[1]))


def _emit_the_values(_key, values, ctx):
    for k, v in values:
        ctx.emit(k, v)


class TestReduceTaskMeasuresInOneCall:
    @settings(deadline=None, max_examples=200)
    @given(_outputs)
    def test_nbytes_is_shuffle_bytes_of_the_output(self, pairs):
        res = run_reduce_task(0, 0, [("g", pairs)], _emit_the_values)
        assert res.data == pairs
        want = sum(reference_nbytes(k) + reference_nbytes(v) for k, v in pairs)
        assert res.nbytes == shuffle_bytes([[res.data]]) == want

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_a_column_of_one_shape_is_sized_as_its_records(self, data):
        # Up to 80 records: long uniform lists are sized a field at a
        # time, short ones and ones with a stray record item by item.
        key = data.draw(st.sampled_from(LEAVES))
        value = data.draw(st.integers(1, 3).flatmap(_shapes))
        n = data.draw(st.integers(0, 80))
        pairs = data.draw(st.lists(st.tuples(key, value), min_size=n,
                                   max_size=n))
        for at, stray in data.draw(st.lists(
                st.tuples(st.integers(0, 80), st.tuples(_leaves, values)),
                max_size=2)):
            pairs.insert(at, stray)
        res = run_reduce_task(0, 0, [("g", pairs)], _emit_the_values)
        want = sum(reference_nbytes(k) + reference_nbytes(v) for k, v in pairs)
        assert res.nbytes == shuffle_bytes([[res.data]]) == want
        for column in zip(*pairs):
            assert estimate_nbytes(list(column)) == reference_nbytes(column)

    @pytest.mark.parametrize("leaf, nbytes", LEAF_SIZES,
                             ids=[repr(leaf) for leaf, _ in LEAF_SIZES])
    def test_a_leaf_in_a_short_output_keeps_its_size(self, leaf, nbytes):
        assert estimate_nbytes(leaf) == nbytes == reference_nbytes(leaf)
        output = [(leaf, 0.5), ("k", leaf), (7, (leaf, leaf))]
        assert estimate_nbytes(output) == 8 + 1 + 8 + 4 * nbytes
        res = run_reduce_task(0, 0, [("g", output)], _emit_the_values)
        assert res.nbytes == shuffle_bytes([[output]]) == 17 + 4 * nbytes

    @pytest.mark.parametrize("leaf, nbytes", LEAF_SIZES,
                             ids=[repr(leaf) for leaf, _ in LEAF_SIZES])
    def test_a_long_column_of_one_leaf_keeps_its_size(self, leaf, nbytes):
        for n in (31, 32, 100):
            assert estimate_nbytes([leaf] * n) == n * nbytes
            assert estimate_nbytes([(7, ("k", leaf))] * n) == n * (9 + nbytes)
            mixed = [(7, ("k", leaf))] * n + [(7, ("k", leaf, None))]
            assert estimate_nbytes(mixed) == n * (9 + nbytes) + 10 + nbytes

    def test_a_long_column_refuses_a_lone_surrogate(self):
        column = ["ok"] * 40 + ["\ud800"]
        with pytest.raises(UnicodeEncodeError):
            estimate_nbytes(column)
        with pytest.raises(UnicodeEncodeError):
            estimate_nbytes([(1, s) for s in column])
