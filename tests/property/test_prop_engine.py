"""Property-based tests (hypothesis) for the MapReduce engine.

Invariants: shuffle loses nothing; combiners never change reduce output
for associative-commutative reducers; executors and fault injection are
observationally equivalent; stable_hash is total and stable on supported
key types.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.engine import (
    FaultPlan,
    HashPartitioner,
    Job,
    JobConf,
    MapReduceRuntime,
    ShuffleBuffer,
    shuffle,
    stable_hash,
)
from repro.engine.columnar import stable_key_order
from repro.engine.shm import SHM_MIN_BYTES

from tests.engine.test_partitioner_counters import reference_hash

# -- strategies ---------------------------------------------------------

words = st.text(alphabet="abcdefg", min_size=1, max_size=4)
docs = st.lists(st.lists(words, max_size=8).map(" ".join), min_size=0, max_size=8)

key_scalars = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
    st.binary(max_size=8),
)
keys = st.one_of(key_scalars, st.tuples(key_scalars, key_scalars))

_I64 = np.iinfo(np.int64)


@st.composite
def int64_key_lists(draw):
    """Duplicated int64 keys inside a window ``[lo, lo + span]``.

    Spans sit on and either side of each 16-bit digit boundary (where
    the radix sort gains a pass), up to the whole int64 range (where
    ``max - min`` itself overflows int64); the window slides anywhere,
    so negatives and the int64 extremes come up.
    """
    span = draw(st.sampled_from(
        [0, 1] + [2 ** b + d for b in (16, 32, 48) for d in (-1, 0, 1)]
        + [2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1]))
    lo = draw(st.integers(_I64.min, _I64.max - span))
    pool = draw(st.lists(st.integers(lo, lo + span), max_size=10))
    if draw(st.booleans()):
        pool += [lo, lo + span]  # the window's ends: exactly this span
    if not pool:
        return []
    return draw(st.lists(st.sampled_from(pool), max_size=50))


def _wc_map(key, value, ctx):
    for w in value.split():
        ctx.emit(w, 1)


def _wc_reduce(key, values, ctx):
    ctx.emit(key, sum(values))


def _wc_block_map(key, value, ctx):
    ws = value.split()
    if ws:
        ctx.emit_block(np.array(ws, dtype=object), np.ones(len(ws)))


def _split(documents, n):
    out = [[] for _ in range(n)]
    for i, d in enumerate(documents):
        out[i % n].append((i, d))
    return out


def _expected(documents):
    c: Counter = Counter()
    for d in documents:
        c.update(d.split())
    return dict(c)


class TestShuffleProperties:
    @given(st.lists(st.lists(st.tuples(words, st.integers()), max_size=10),
                    min_size=1, max_size=5),
           st.integers(min_value=1, max_value=6))
    def test_no_pair_lost_or_duplicated(self, map_outputs, num_reducers):
        part = HashPartitioner()
        buckets = []
        for pairs in map_outputs:
            b = [[] for _ in range(num_reducers)]
            for k, v in pairs:
                b[part(k, num_reducers)].append((k, v))
            buckets.append(b)
        grouped = shuffle(buckets, num_reducers)
        regrouped = Counter()
        for r in grouped:
            for k, vs in r:
                regrouped[k] += len(vs)
        original = Counter(k for pairs in map_outputs for k, _ in pairs)
        assert regrouped == original

    @given(st.lists(st.lists(st.tuples(words, st.integers()), max_size=10),
                    min_size=1, max_size=5),
           st.integers(min_value=1, max_value=6),
           st.randoms(use_true_random=False))
    def test_buffer_insertion_order_irrelevant(self, map_outputs,
                                               num_reducers, rng):
        # streaming consumption in ANY completion order must reproduce
        # the batch shuffle exactly (the buffer restores map order)
        part = HashPartitioner()
        buckets = []
        for pairs in map_outputs:
            b = [[] for _ in range(num_reducers)]
            for k, v in pairs:
                b[part(k, num_reducers)].append((k, v))
            buckets.append(b)
        order = list(range(len(buckets)))
        rng.shuffle(order)
        buf = ShuffleBuffer(len(buckets), num_reducers)
        for m in order:
            buf.add(m, buckets[m])
        assert buf.groups() == shuffle(buckets, num_reducers)

    @given(st.lists(st.tuples(words, st.integers()), max_size=30),
           st.integers(min_value=1, max_value=4))
    def test_each_key_exactly_one_reducer(self, pairs, num_reducers):
        part = HashPartitioner()
        buckets = [[[] for _ in range(num_reducers)]]
        for k, v in pairs:
            buckets[0][part(k, num_reducers)].append((k, v))
        grouped = shuffle(buckets, num_reducers)
        owners = {}
        for r, groups in enumerate(grouped):
            for k, _ in groups:
                assert k not in owners
                owners[k] = r


class TestStableHash:
    @given(keys)
    def test_total_and_self_consistent(self, key):
        # Twice, and against the memo-free reference: with a memo in
        # stable_hash, agreeing with itself proves nothing.
        assert stable_hash(key) == stable_hash(key) == reference_hash(key)
        assert isinstance(stable_hash(key), int)

    @given(keys, st.integers(min_value=1, max_value=64))
    def test_partitioner_in_range(self, key, r):
        assert 0 <= HashPartitioner()(key, r) < r


class TestStableKeyOrder:
    @given(int64_key_lists())
    @example([])
    @example([7])
    @example([_I64.max, _I64.min, 0, _I64.max, -1, _I64.min])
    def test_equals_numpy_stable_argsort(self, keys):
        k = np.array(keys, dtype=np.int64)
        assert np.array_equal(stable_key_order(k),
                              np.argsort(k, kind="stable"))

    @pytest.mark.parametrize("dtype", [np.int32, np.uint64, np.float64])
    def test_rejects_non_int64(self, dtype):
        with pytest.raises(TypeError, match="int64"):
            stable_key_order(np.arange(4).astype(dtype))

    @given(int64_key_lists(), st.data())
    def test_pair_order_equals_lexsort(self, majors, data):
        # the graph layer's (u, v) sort: two passes of the same kernel
        from repro.util import stable_pair_order

        minors = data.draw(st.lists(st.integers(0, 3), min_size=len(majors),
                                    max_size=len(majors)))
        major = np.array(majors, dtype=np.int64)
        minor = np.array(minors, dtype=np.int64)
        assert np.array_equal(stable_pair_order(major, minor),
                              np.lexsort((minor, major)))


class TestJobProperties:
    @settings(deadline=None, max_examples=25,
              suppress_health_check=[HealthCheck.too_slow])
    @given(docs, st.integers(min_value=1, max_value=4))
    def test_wordcount_correct_any_input(self, documents, reducers):
        job = Job(_wc_map, _wc_reduce, conf=JobConf(num_reducers=reducers))
        res = MapReduceRuntime("serial").run(job, _split(documents, 3))
        assert res.as_dict() == _expected(documents)

    @settings(deadline=None, max_examples=25,
              suppress_health_check=[HealthCheck.too_slow])
    @given(docs)
    def test_combiner_never_changes_output(self, documents):
        base = Job(_wc_map, _wc_reduce, conf=JobConf(num_reducers=3))
        combined = Job(_wc_map, _wc_reduce, combine_fn=_wc_reduce,
                       conf=JobConf(num_reducers=3))
        rt = MapReduceRuntime("serial")
        splits = _split(documents, 2)
        assert rt.run(base, splits).as_dict() == rt.run(combined, splits).as_dict()

    @settings(deadline=None, max_examples=20,
              suppress_health_check=[HealthCheck.too_slow])
    @given(docs, st.integers(min_value=0, max_value=10_000))
    def test_fault_injection_observationally_equivalent(self, documents, seed):
        job = Job(_wc_map, _wc_reduce, conf=JobConf(num_reducers=2))
        splits = _split(documents, 3)
        clean = MapReduceRuntime("serial").run(job, splits)
        faulty = MapReduceRuntime(
            "serial", fault_plan=FaultPlan.random(0.3, seed=seed)
        ).run(job, splits)
        assert clean.as_dict() == faulty.as_dict()

    @settings(deadline=None, max_examples=10,
              suppress_health_check=[HealthCheck.too_slow])
    @given(docs, st.sampled_from([0, 64, SHM_MIN_BYTES]))
    def test_thread_executor_equivalent(self, documents, shm_min_bytes):
        # object shuffle, and a columnar shuffle under a *callable*
        # reduce: the pooled reduce task groups its own run (buckets
        # parked in segments or inline, as the threshold falls) and
        # materialises the object groups from it
        splits = _split(documents, 3)
        for map_fn in (_wc_map, _wc_block_map):
            job = Job(map_fn, _wc_reduce, conf=JobConf(num_reducers=2))
            serial = MapReduceRuntime("serial").run(job, splits)
            with MapReduceRuntime("threads", workers=3, shm_transport=True,
                                  shm_min_bytes=shm_min_bytes) as rt:
                threads = rt.run(job, splits)
                assert rt.segments.live_count == 0
            assert serial.output == threads.output
            assert serial.as_dict() == _expected(documents)

    @settings(deadline=None, max_examples=10,
              suppress_health_check=[HealthCheck.too_slow])
    @given(docs, st.integers(min_value=0, max_value=10_000))
    def test_eager_reduce_equivalent_under_faults(self, documents, seed):
        # streaming pipeline + immediate retries vs the serial barrier
        # reference: byte-identical output, with and without faults
        splits = _split(documents, 3)
        barrier = MapReduceRuntime("serial").run(
            Job(_wc_map, _wc_reduce, conf=JobConf(num_reducers=2)), splits)
        eager_job = Job(_wc_map, _wc_reduce,
                        conf=JobConf(num_reducers=2, eager_reduce=True))
        with MapReduceRuntime(
                "threads", workers=3,
                fault_plan=FaultPlan.random(0.3, seed=seed)) as rt:
            eager = rt.run(eager_job, splits)
        assert eager.output == barrier.output
