"""Property-based tests (hypothesis) for the MapReduce engine.

Invariants: shuffle loses nothing; combiners never change reduce output
for associative-commutative reducers; executors and fault injection are
observationally equivalent; stable_hash is total and stable on supported
key types; a shuffle plan, fresh or kept, is bitwise the object path.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import repro
from repro.engine import (
    ColumnarBlock,
    ColumnarRun,
    FaultPlan,
    HashPartitioner,
    Job,
    JobConf,
    MapReduceRuntime,
    ShuffleBuffer,
    TaskContext,
    run_map_task,
    run_reduce_task,
    shuffle,
    stable_hash,
)
from repro.engine.columnar import (
    GroupPlan,
    RouteCombinePlan,
    object_combiner,
    object_reducer,
    stable_key_order,
)
from repro.engine import task
from repro.engine.shm import SHM_MIN_BYTES
from repro.engine.task import _apply_combiner

from tests.engine.test_partitioner_counters import reference_hash

# -- strategies ---------------------------------------------------------

words = st.text(alphabet="abcdefg", min_size=1, max_size=4)
docs = st.lists(st.lists(words, max_size=8).map(" ".join), min_size=0, max_size=8)

#: Scripted failures for a 3-map, 2-reducer job: each task fails at most
#: 3 of its 4 attempts, so every job still completes.
fault_scripts = st.dictionaries(
    st.tuples(st.sampled_from(["map", "reduce"]), st.integers(0, 2)),
    st.integers(0, 3), max_size=5)

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

    Spans sit on and either side of each 16-bit digit boundary (2**16
    is where the kernel leaves its radix pass), up to the whole int64
    range (where
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

    # -- explicit cases at the kernel's switches --------------------------
    # One uint16 radix argsort while the span fits 16 bits, else one SIMD
    # sort of (offset << nb | position) composites per (64 - nb)-bit
    # digit, nb = (n - 1).bit_length().  Keys are drawn from a small pool
    # so that every case is full of ties, which only a stable order keeps.

    @pytest.mark.parametrize("span", [2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1])
    @pytest.mark.parametrize("lo", [-3, int(_I64.min)])
    def test_radix_composite_switch(self, span, lo):
        k = _tied_window(5000, span, lo, seed=span)
        assert np.array_equal(stable_key_order(k), np.argsort(k, kind="stable"))

    @pytest.mark.parametrize("d", [-1, 0, 1])
    def test_one_and_two_composite_passes(self, d):
        n = 2 ** 17 + 3
        nb = (n - 1).bit_length()
        assert nb == 18
        # span < 2**46 fits one composite; 2**46 and up take two sorts
        k = _tied_window(n, 2 ** (64 - nb) + d, -(2 ** 45), seed=d + 7)
        assert np.array_equal(stable_key_order(k), np.argsort(k, kind="stable"))

    @pytest.mark.parametrize("value", [0, -1, int(_I64.min), int(_I64.max)])
    def test_all_equal_keys(self, value):
        k = np.full(100_000, value, dtype=np.int64)
        assert np.array_equal(stable_key_order(k), np.arange(len(k)))

    def test_int64_extremes_at_large_n(self):
        rng = np.random.default_rng(3)
        pool = np.concatenate([
            [_I64.min, _I64.max, _I64.min + 1, _I64.max - 1, 0, -1, 1],
            rng.integers(_I64.min, _I64.max, 500, endpoint=True)])
        k = pool[rng.integers(0, len(pool), 2 ** 17 + 3)].astype(np.int64)
        assert k.min() == _I64.min and k.max() == _I64.max
        assert np.array_equal(stable_key_order(k), np.argsort(k, kind="stable"))

    def test_same_order_without_simd_sort(self):
        """NumPy picks its sort kernel at run time from the CPU's
        features; ``NPY_DISABLE_CPU_FEATURES`` (read once, at import)
        turns every dispatched target off, leaving the baseline build's
        non-SIMD sort.  The composites are distinct, so both kernels
        must return the same permutation."""
        umath = _multiarray_umath()
        dispatch = list(umath.__cpu_dispatch__)
        here = _kernel_digest()
        src = str(Path(repro.__file__).resolve().parents[1])
        root = str(Path(__file__).resolve().parents[2])
        script = (
            "from tests.property.test_prop_engine import (\n"
            "    _kernel_digest, _multiarray_umath)\n"
            "features = _multiarray_umath().__cpu_features__\n"
            f"assert not any(features.get(f) for f in {dispatch!r})\n"
            "print(_kernel_digest())\n")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, cwd=root,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([src, root]),
                 "NPY_DISABLE_CPU_FEATURES": " ".join(dispatch)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == here


def _tied_window(n: int, span: int, lo: int, seed: int) -> np.ndarray:
    """``n`` int64 keys from a 300-value pool inside ``[lo, lo + span]``,
    both ends included: the observed span is exactly ``span``."""
    rng = np.random.default_rng(seed)
    offsets = rng.integers(0, span, 300, dtype=np.uint64, endpoint=True)
    offsets[:2] = (0, span)
    pool = (offsets + np.uint64(lo % 2 ** 64)).view(np.int64)
    return pool[rng.integers(0, len(pool), n)]


def _multiarray_umath():
    core = getattr(np, "_core", None) or np.core
    return core._multiarray_umath


def _kernel_digest() -> str:
    """sha256 of the kernel's orders over inputs that take every branch;
    each order is also checked against NumPy's stable argsort."""
    h = hashlib.sha256()
    for n, span, lo in [(5000, 2 ** 16 - 1, -9), (5000, 2 ** 16 + 1, 0),
                        (5000, 2 ** 40, -(2 ** 39)),
                        (2 ** 17 + 3, 2 ** 46 - 1, 5),
                        (2 ** 17 + 3, 2 ** 46, 5),
                        (2 ** 17 + 3, 2 ** 64 - 1, int(_I64.min))]:
        k = _tied_window(n, span, lo, seed=n + span.bit_length())
        order = stable_key_order(k)
        assert np.array_equal(order, np.argsort(k, kind="stable"))
        h.update(order.tobytes())
    return h.hexdigest()


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
    @given(docs, fault_scripts)
    def test_fault_injection_observationally_equivalent(self, documents, scripted):
        job = Job(_wc_map, _wc_reduce, conf=JobConf(num_reducers=2))
        splits = _split(documents, 3)
        clean = MapReduceRuntime("serial").run(job, splits)
        faulty = MapReduceRuntime(
            "serial", fault_plan=FaultPlan(scripted=scripted)
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
    @given(docs, fault_scripts)
    def test_streaming_pipeline_equivalent_under_faults(self, documents, scripted):
        # streaming pipeline + immediate retries vs the serial
        # reference: byte-identical output, with and without faults
        splits = _split(documents, 3)
        job = Job(_wc_map, _wc_reduce, conf=JobConf(num_reducers=2))
        serial = MapReduceRuntime("serial").run(job, splits)
        with MapReduceRuntime(
                "threads", workers=3,
                fault_plan=FaultPlan(scripted=scripted)) as rt:
            threads = rt.run(job, splits)
        assert threads.output == serial.output


# -- shuffle plans --------------------------------------------------------

@st.composite
def plan_inputs(draw):
    """``(keys, values, values2)`` for the plan properties.

    Keys sit in a window near zero or anywhere in ``±2**40`` (negatives
    and keys past the int32 range come up), of a span either side of 2**16, drawn from a
    pool small enough for heavy duplicates.  Values are ``(n,)`` or
    ``(n, 2)``; ``values2`` is a second draw of the same shape.
    """
    span = draw(st.sampled_from([0, 5, 2 ** 16 - 1, 2 ** 16 + 1, 2 ** 33]))
    lo = draw(st.one_of(st.integers(-1000, 1000),
                        st.integers(-(2 ** 40), 2 ** 40)))
    pool = draw(st.lists(st.integers(lo, lo + span), min_size=1,
                         max_size=draw(st.sampled_from([3, 40]))))
    keys = np.array(draw(st.lists(st.sampled_from(pool), min_size=3,
                                  max_size=150)), dtype=np.int64)
    shape = (len(keys),) if draw(st.booleans()) else (len(keys), 2)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return keys, rng.standard_normal(shape), rng.standard_normal(shape)


aggs = st.sampled_from(["sum", "min", "max"])
reducer_counts = st.integers(min_value=1, max_value=5)


def _as_block(pairs, width):
    """Object pairs as one block, to compare with a columnar one bitwise."""
    keys = np.array([k for k, _ in pairs], dtype=np.int64)
    values = np.array([v for _, v in pairs], dtype=np.float64)
    return keys, values.reshape((len(pairs),) if width == 1
                                else (len(pairs), width))


def _assert_bitwise(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.keys, w.keys)
        assert g.values.shape == w.values.shape
        assert g.values.tobytes() == w.values.tobytes()


def _map_oracle(keys, values, agg, reducers):
    """The object path's map tail: `_apply_combiner`, then route every
    combined pair with `HashPartitioner`."""
    ctx = TaskContext("m0", 0)
    pairs = _apply_combiner(ColumnarBlock(keys, values).to_pairs(),
                            object_combiner(agg), ctx)
    buckets = [[] for _ in range(reducers)]
    part = HashPartitioner()
    for k, v in pairs:
        buckets[part(k, reducers)].append((k, v))
    width = 1 if values.ndim == 1 else values.shape[1]
    return [ColumnarBlock(*_as_block(b, width)) for b in buckets]


def _emit_block_map(key, value, ctx):
    ctx.emit_block(*value)


@contextlib.contextmanager
def _worker_memo():
    """Run the body as a plan-keeping pool worker would, on an empty
    memo; the process's own memo state comes back afterwards."""
    saved = (task._KEEP_PLANS, task._PLANS_SHAPE, dict(task._PLANS))
    task._KEEP_PLANS, task._PLANS_SHAPE = True, None
    task._PLANS.clear()
    try:
        yield task._PLANS
    finally:
        task._KEEP_PLANS, task._PLANS_SHAPE = saved[:2]
        task._PLANS.clear()
        task._PLANS.update(saved[2])


def _map_task(keys, values, agg, reducers, job_shape=None):
    # crossover 0: the combine runs on every batch size
    return run_map_task(0, 0, [(0, (keys, values))], _emit_block_map, agg,
                        None, reducers, None, True, 0, None, None,
                        job_shape).data


def _changed_middle(keys, i):
    """``keys`` with one key strictly inside flipped to another value."""
    out = keys.copy()
    out[1 + i % (len(keys) - 2)] ^= 1
    return out


class TestShufflePlans:
    @settings(deadline=None, max_examples=150)
    @given(plan_inputs(), aggs, reducer_counts)
    def test_map_plan_is_the_object_combine_and_route(self, inp, agg,
                                                      reducers):
        keys, values, values2 = inp
        plan = RouteCombinePlan.build(keys, reducers)
        _assert_bitwise(plan.apply(values, agg),
                        _map_oracle(keys, values, agg, reducers))
        # the same plan over new values: a fresh build's bits
        _assert_bitwise(plan.apply(values2, agg),
                        RouteCombinePlan.build(keys, reducers)
                        .apply(values2, agg))
        _assert_bitwise(plan.apply(values2, agg),
                        _map_oracle(keys, values2, agg, reducers))

    @settings(deadline=None, max_examples=150)
    @given(plan_inputs(), aggs, st.integers(min_value=1, max_value=4),
           st.booleans())
    def test_group_plan_is_the_object_groups_and_reduce(self, inp, agg, maps,
                                                        sort_keys):
        keys, values, values2 = inp
        cuts = np.linspace(0, len(keys), maps + 1).astype(int)
        buf = ShuffleBuffer(maps, 1, sort_keys=sort_keys)
        for m in range(maps):
            lo, hi = cuts[m], cuts[m + 1]
            buf.add(m, [ColumnarBlock(keys[lo:hi], values[lo:hi]).to_pairs()])
        groups = buf.groups()[0]
        ctx = TaskContext("r0", 0)
        reduce_fn = object_reducer(agg)
        for k, vs in groups:
            reduce_fn(k, vs, ctx)
        width = 1 if values.ndim == 1 else values.shape[1]
        want = ColumnarBlock(*_as_block(ctx.output, width))

        plan = GroupPlan.build(keys, sort_keys)
        grouped = plan.apply(values)
        assert grouped.to_pairs() == groups
        _assert_bitwise([ColumnarBlock(*grouped.aggregate(agg))], [want])
        fresh = GroupPlan.build(keys, sort_keys).apply(values2).aggregate(agg)
        _assert_bitwise([ColumnarBlock(*plan.apply(values2).aggregate(agg))],
                        [ColumnarBlock(*fresh)])

    @settings(deadline=None, max_examples=100)
    @given(plan_inputs(), aggs, reducer_counts)
    def test_a_kept_map_plan_equals_a_fresh_build(self, inp, agg, reducers):
        keys, values, values2 = inp
        shape = (1, reducers)
        with _worker_memo() as plans:
            _map_task(keys, values, agg, reducers, shape)
            kept = plans[("map", 0)][2]
            got = _map_task(keys, values2, agg, reducers, shape)
            assert plans[("map", 0)][2] is kept  # applied, not rebuilt
        _assert_bitwise(got, _map_task(keys, values2, agg, reducers))

    @settings(deadline=None, max_examples=100)
    @given(plan_inputs(), aggs, reducer_counts, st.integers(0, 10 ** 6))
    def test_a_changed_middle_key_rebuilds_the_map_plan(self, inp, agg,
                                                        reducers, i):
        keys, values, _ = inp
        changed = _changed_middle(keys, i)
        assert changed[0] == keys[0] and changed[-1] == keys[-1]
        shape = (1, reducers)
        with _worker_memo() as plans:
            _map_task(keys, values, agg, reducers, shape)
            kept = plans[("map", 0)][2]
            got = _map_task(changed, values, agg, reducers, shape)
            assert plans[("map", 0)][2] is not kept
        _assert_bitwise(got, _map_task(changed, values, agg, reducers))
        _assert_bitwise(got, _map_oracle(changed, values, agg, reducers))

    @settings(deadline=None, max_examples=100)
    @given(plan_inputs(), aggs, st.booleans(), st.integers(0, 10 ** 6))
    def test_reduce_plans_hit_on_equal_keys_and_rebuild_on_a_change(
            self, inp, agg, sort_keys, i):
        keys, values, values2 = inp
        changed = _changed_middle(keys, i)

        def reduce_task(k, v, job_shape=None):
            half = len(k) // 2
            run = ColumnarRun([ColumnarBlock(k[:half], v[:half]),
                               ColumnarBlock(k[half:], v[half:])], sort_keys)
            return run_reduce_task(0, 0, run, agg, None, True, None, None,
                                   job_shape).data

        with _worker_memo() as plans:
            reduce_task(keys, values, (2, 1))
            kept = plans[("reduce", 0)][2]
            hit = reduce_task(keys, values2, (2, 1))
            assert plans[("reduce", 0)][2] is kept
            rebuilt = reduce_task(changed, values2, (2, 1))
            assert plans[("reduce", 0)][2] is not kept
        _assert_bitwise([hit], [reduce_task(keys, values2)])
        _assert_bitwise([rebuilt], [reduce_task(changed, values2)])
