"""The object map tail routes in bulk and gives the per-record loop's
answer, record for record.

``run_map_task`` used to route, size and bucket an object task's pairs
one record at a time; it now takes the key column at once (one
``hash_buckets`` sweep for exact-int int64 keys under the default
routing, else one ``partitioner(k, R)`` call per key) and fills the
buckets with one stable grouping.  :func:`_per_record_tail` below is the
loop it replaced, verbatim, and the oracle: the same buckets holding the
same tuple objects in the same order, the same ``nbytes``, counters and
ops, and the same exception.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.dfs import estimate_nbytes
from repro.engine import HashPartitioner, RangePartitioner
from repro.engine import task as task_mod
from repro.engine.shuffle import shuffle_bytes
from repro.engine.task import run_map_task

I64 = np.iinfo(np.int64)


def _per_record_tail(pairs, partitioner, num_reducers):
    """The object tail of ``run_map_task`` before it routed in bulk."""
    # One pass routes and sizes each record and buckets the tuple the
    # map emitted; nbytes == shuffle_bytes([buckets]).
    buckets: list[list[tuple[Any, Any]]] = [[] for _ in range(num_reducers)]
    nbytes = 0
    for pair in pairs:
        k, v = pair
        b = partitioner(k, num_reducers)
        if not 0 <= b < num_reducers:
            # buckets[-1] would be reducer R-1, in silence; the columnar
            # path raises the same error.
            raise IndexError(
                f"partitioner returned bucket outside [0, {num_reducers})")
        buckets[b].append(pair)
        nbytes += estimate_nbytes(k) + estimate_nbytes(v)
    return buckets, nbytes


class _Shifted(HashPartitioner):
    """A subclass that overrides ``__call__``: never the vectorised hash."""

    def __call__(self, key, num_reducers):
        return (super().__call__(key, num_reducers) + 1) % num_reducers


def _by_repr(key, num_reducers):
    return len(repr(key)) % num_reducers


def _one_past_the_end(key, num_reducers):
    return num_reducers


PARTITIONERS = {
    "none": None,
    "hash": HashPartitioner(),
    "subclass": _Shifted(),
    "function": _by_repr,
    "returns-R": _one_past_the_end,
}


def _emit_all(_key, pairs, ctx):
    """Map function: the split's one record carries the task's pairs."""
    ctx.emit_pairs(pairs)


def _run(pairs, partitioner, num_reducers, tail=None, monkeypatch=None):
    """``run_map_task`` over ``pairs`` -> the result, or the exception
    it raised; with ``tail`` it runs with the map tail replaced."""
    if tail is not None:
        monkeypatch.setattr(task_mod, "_route_pairs", tail)
    try:
        return run_map_task(0, 0, [(None, pairs)], _emit_all, None,
                            partitioner, num_reducers, None, False)
    except Exception as exc:  # compared by type below
        return exc
    finally:
        if tail is not None:
            monkeypatch.undo()


def _assert_same(pairs, partitioner, num_reducers, monkeypatch):
    got = _run(pairs, partitioner, num_reducers)
    oracle = HashPartitioner() if partitioner is None else partitioner
    want = _run(pairs, oracle, num_reducers, _per_record_tail, monkeypatch)
    if isinstance(want, Exception):
        assert type(got) is type(want), (got, want)
        return
    assert not isinstance(got, Exception), got
    assert len(got.data) == len(want.data) == num_reducers
    for mine, theirs in zip(got.data, want.data):
        assert len(mine) == len(theirs)
        assert all(a is b for a, b in zip(mine, theirs))
    assert got.nbytes == want.nbytes == shuffle_bytes([got.data])
    assert got.counters.as_dict() == want.counters.as_dict()
    assert got.ops == want.ops


int64s = st.integers(int(I64.min), int(I64.max))
edges = st.sampled_from([int(I64.min), int(I64.min) + 1, -1, 0, 1,
                         int(I64.max) - 1, int(I64.max)])
keys = st.one_of(
    st.integers(-1000, 1000), int64s, edges,
    st.sampled_from([1 << 63, -(1 << 63) - 1, 1 << 100, True, False,
                     np.int64(7), np.int64(-3), 1.0, -0.0, 0.0, None,
                     "a", "é", "", (1, "a"), (), ((2, 3.5), None)]),
    st.text(max_size=4),
    st.tuples(st.integers(-5, 5), st.text(max_size=2)),
)
values = st.one_of(
    st.floats(allow_nan=False), st.integers(-10, 10), st.none(),
    st.tuples(st.sampled_from(["rank", "ext"]), st.floats(allow_nan=False)),
    st.text(max_size=3),
)
all_int_pairs = st.lists(st.tuples(st.one_of(int64s, edges), values),
                         max_size=60)
mixed_pairs = st.lists(st.tuples(keys, values), max_size=60)


class TestTheBulkTailIsTheLoop:
    @settings(deadline=None, max_examples=300)
    @given(pairs=st.one_of(all_int_pairs, mixed_pairs),
           partitioner=st.sampled_from(sorted(PARTITIONERS)),
           num_reducers=st.integers(1, 9))
    def test_same_buckets_bytes_counters_ops_and_errors(
            self, pairs, partitioner, num_reducers):
        with pytest.MonkeyPatch.context() as mp:
            _assert_same(pairs, PARTITIONERS[partitioner], num_reducers, mp)

    @pytest.mark.parametrize("num_reducers", [-1, 0, 1, 4])
    @pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
    def test_an_empty_task_calls_no_partitioner(self, partitioner,
                                                num_reducers):
        res = _run([], PARTITIONERS[partitioner], num_reducers)
        assert res.data == [[] for _ in range(num_reducers)]
        assert res.nbytes == 0

    @pytest.mark.parametrize("num_reducers", [-1, 0])
    @pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
    def test_no_reducers_with_records_raises_as_before(
            self, partitioner, num_reducers, monkeypatch):
        _assert_same([(3, 1.0), ("a", 2.0)], PARTITIONERS[partitioner],
                     num_reducers, monkeypatch)
        _assert_same([(3, 1.0), (4, 2.0)], PARTITIONERS[partitioner],
                     num_reducers, monkeypatch)

    def test_a_key_past_128_bits_raises_overflow_from_stable_hash(self):
        for pairs in ([(1 << 127, 0.0)], [(1, 0.0), (-(1 << 127) - 1, 0.0)]):
            with pytest.raises(OverflowError, match="128 bits|too big"):
                run_map_task(0, 0, [(None, pairs)], _emit_all, None,
                             HashPartitioner(), 3, None, False)

    def test_a_range_partitioner_keeps_its_per_key_calls(self, monkeypatch):
        pairs = [(k, float(k)) for k in (5, 1, 9, 3, 7, 0)]
        _assert_same(pairs, RangePartitioner([2, 6]), 3, monkeypatch)
        _assert_same(pairs, RangePartitioner([2, 6]), 4, monkeypatch)

    def test_a_non_integer_bucket_is_a_type_error(self, monkeypatch):
        _assert_same([(1, 0.0)], lambda k, r: 1.0, 3, monkeypatch)


class TestWhichRouteAKeyTakes:
    """Exact ints within int64 under the default routing never call a
    partitioner; anything else calls it once per key, in order."""

    @pytest.fixture()
    def per_key_calls(self, monkeypatch):
        calls = []
        real = task_mod.partition_each

        def counting(keys, partitioner, num_reducers):
            calls.append(list(keys))
            return real(keys, partitioner, num_reducers)

        monkeypatch.setattr(task_mod, "partition_each", counting)
        return calls

    @pytest.mark.parametrize("partitioner", [None, HashPartitioner()])
    def test_int64_keys_take_one_hash_sweep(self, per_key_calls, partitioner):
        pairs = [(k, 1.0) for k in (int(I64.min), -1, 0, 5, int(I64.max))]
        _run(pairs, partitioner, 4)
        assert per_key_calls == []

    @pytest.mark.parametrize("odd_key", [True, np.int64(5), 1 << 63, 1.0, "5"])
    def test_one_other_key_sends_the_task_per_key(self, per_key_calls,
                                                  odd_key):
        _run([(1, 1.0), (odd_key, 2.0), (3, 3.0)], HashPartitioner(), 4)
        assert per_key_calls == [[1, odd_key, 3]]

    def test_a_subclass_is_called_per_key(self, per_key_calls):
        _run([(1, 1.0), (2, 2.0)], _Shifted(), 4)
        assert per_key_calls == [[1, 2]]
