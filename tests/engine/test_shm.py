"""Shared-memory transport: parity, ownership, and leak-freedom.

The shm transport is an *optimisation of the wire*, not of the shuffle:
every job routed through named segments must produce output bitwise
identical to the same job through the pickle pipe, and every segment a
job creates must be gone — clean finish, task retries, or abort — by
the time ``run`` returns (plus ``close()``/``__del__`` as backstops).
"""

from __future__ import annotations

import glob
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.engine import (
    ColumnarBlock,
    ColumnarRun,
    FaultPlan,
    HashPartitioner,
    Job,
    JobConf,
    JobFailedError,
    MapReduceRuntime,
    NodeFaultPlan,
    ShmBlockRef,
    ShmPickleRef,
    SimulatedTaskFailure,
    run_reduce_task,
)
from repro.engine import shm
from repro.cluster import SpeculationConfig
from repro.engine.counters import (
    LOST_MAP_OUTPUTS,
    NODE_DEATHS,
    SPECULATIVE_BACKUPS,
    TASK_RETRIES,
)
from repro.engine.shm import _PICKLE_CACHE, _unlink_quietly, export_pickled

VOCAB = [f"word{i:03d}" for i in range(40)]


def _emit_block_map(key, value, ctx):
    keys, values = value
    ctx.emit_block(keys, values)


def _emit_words_map(key, value, ctx):
    words, counts = value
    ctx.emit_block(words, counts)


def _splits(num_splits=4, n=3000, seed=11):
    rng = np.random.default_rng(seed)
    return [
        [(m, (rng.integers(0, 500, n), rng.random(n)))]
        for m in range(num_splits)
    ]


def _word_splits(num_splits=3, n=2500, seed=5):
    rng = np.random.default_rng(seed)
    return [
        [(m, (np.array([VOCAB[i] for i in rng.integers(0, len(VOCAB), n)],
                       dtype=object),
              np.ones(n, dtype=np.float64)))]
        for m in range(num_splits)
    ]


def _live_segments() -> "set[str]":
    """Names of this machine's live repro shm segments (POSIX /dev/shm)."""
    return {p.rsplit("/", 1)[1] for p in glob.glob("/dev/shm/*reproshm-*")}


class TestCrossExecutorParity:
    """serial == threads == processes, segments or pipes, bit for bit."""

    @pytest.mark.parametrize("combine", [None, "sum"])
    def test_output_bitwise_identical(self, combine):
        splits = _splits()
        outputs = {}
        for executor in ("serial", "threads", "processes"):
            with MapReduceRuntime(executor, workers=2,
                                  shm_min_bytes=1024) as rt:
                res = rt.run(
                    Job(_emit_block_map, "sum", combine_fn=combine,
                        conf=JobConf(num_reducers=3)), splits)
                assert rt.segments.live_count == 0
            outputs[executor] = res.output
        assert outputs["serial"] == outputs["threads"]
        assert outputs["serial"] == outputs["processes"]

    def test_dictionary_blocks_ride_segments(self):
        """String-key (dictionary-encoded) jobs through the process pool."""
        splits = _word_splits()
        outs = {}
        for executor in ("serial", "processes"):
            with MapReduceRuntime(executor, workers=2,
                                  shm_min_bytes=1024) as rt:
                outs[executor] = rt.run(
                    Job(_emit_words_map, "sum", combine_fn="sum",
                        conf=JobConf(num_reducers=2)), splits).output
        assert outs["serial"] == outs["processes"]
        counts = dict(outs["processes"])
        assert set(counts) <= set(VOCAB)
        assert sum(counts.values()) == 3 * 2500

    def test_retried_tasks_replay_identically(self):
        """Out-of-order + retried arrivals leave the output unchanged."""
        splits = _splits()
        plan = FaultPlan.script({("map", 1): 1, ("map", 3): 2,
                                 ("reduce", 0): 1})
        with MapReduceRuntime("processes", workers=2, fault_plan=plan,
                              shm_min_bytes=1024) as rt:
            faulty = rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                                conf=JobConf(num_reducers=3)), splits)
            assert rt.segments.live_count == 0
        with MapReduceRuntime("serial") as rt:
            clean = rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                               conf=JobConf(num_reducers=3)), splits)
        assert faulty.output == clean.output


class TestSegmentLifecycle:
    def test_zero_segments_after_clean_job(self):
        before = _live_segments()
        with MapReduceRuntime("processes", workers=2,
                              shm_min_bytes=1024) as rt:
            rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                       conf=JobConf(num_reducers=3)), _splits())
            assert rt.segments.live_count == 0
        assert _live_segments() <= before

    def test_zero_segments_after_midjob_failure(self):
        """Task retries park fresh segments; none of them may leak."""
        before = _live_segments()
        plan = FaultPlan.script({("map", 0): 1, ("reduce", 1): 1})
        with MapReduceRuntime("processes", workers=2, fault_plan=plan,
                              shm_min_bytes=1024) as rt:
            rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                       conf=JobConf(num_reducers=3)), _splits())
            assert rt.segments.live_count == 0
        assert _live_segments() <= before

    def test_abort_sweep_reclaims_everything(self):
        """A job that dies mid-flight sweeps its whole namespace."""
        before = _live_segments()
        plan = FaultPlan.script({("map", 2): 99})  # exceeds max_attempts
        with MapReduceRuntime("processes", workers=2, fault_plan=plan,
                              shm_min_bytes=1024) as rt:
            with pytest.raises(JobFailedError):
                rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                           conf=JobConf(num_reducers=3, max_attempts=2)),
                       _splits())
            assert rt.segments.live_count == 0
        assert _live_segments() <= before


def _assert_bitwise(res, oracle):
    got, want = res.columnar_output, oracle.columnar_output
    assert np.array_equal(got.keys, want.keys)
    assert got.values.tobytes() == want.values.tobytes()


def _fail_r1_after_reading(key, values, ctx):
    """A callable reduce whose first attempt on reducer 1 dies — by then
    the task has read and grouped its map buckets."""
    if ctx.task_id == "r1" and ctx.attempt == 0:
        raise SimulatedTaskFailure("reduce 1 dies mid-task")
    ctx.emit(key, sum(values))


class TestReducerSideMerge:
    """The driver locates columnar map output and never reads it: each
    reduce task takes its own buckets out of the segments the map
    workers parked them in, and groups them itself."""

    M, R = 4, 2
    JOB = Job(_emit_block_map, "sum", combine_fn="sum",
              conf=JobConf(num_reducers=R))

    def _oracle(self, job, splits):
        with MapReduceRuntime("serial") as rt:
            return rt.run(job, splits)

    @pytest.mark.parametrize("executor", ["processes", "threads"])
    def test_driver_takes_only_reduce_outputs(self, executor, monkeypatch):
        takes, created = [], []
        real_take, real_write = ShmBlockRef.take, shm._write_segment

        def take(ref, *, unlink=True):
            takes.append((ref.name, unlink))
            return real_take(ref, unlink=unlink)

        def write(name, arrays):
            created.append(name)
            return real_write(name, arrays)

        def no_export_groups(*args, **kwargs):
            raise AssertionError("export_groups has no live caller")

        # Patched before the pool forks: a worker's calls land in the
        # worker's copy of the lists, so under "processes" these record
        # the driver alone; under "threads" the whole job.
        monkeypatch.setattr(ShmBlockRef, "take", take)
        monkeypatch.setattr(shm, "_write_segment", write)
        monkeypatch.setattr(shm, "export_groups", no_export_groups)
        runs = 2
        splits = _splits(num_splits=self.M)
        before = _live_segments()
        with MapReduceRuntime(executor, workers=2, shm_transport=True,
                              shm_min_bytes=1024) as rt:
            for _ in range(runs):
                res = rt.run(self.JOB, splits)
                assert rt.segments.live_count == 0
        assert _live_segments() <= before
        _assert_bitwise(res, self._oracle(self.JOB, splits))
        consumed = [name for name, unlink in takes if unlink]
        assert len(consumed) == self.R * runs
        assert all(re.search(r"-r\d+a0$", name) for name in consumed)
        assert not any(re.search(r"-g\d+$", name) for name in created)
        if executor == "processes":
            assert len(takes) == self.R * runs  # no map bucket read here
            assert created == []                # thin functions: no f/rf
        else:
            in_place = [name for name, unlink in takes if not unlink]
            assert len(in_place) == self.M * self.R * runs
            assert len(created) == (self.M * self.R + self.R) * runs

    def test_reduce_retry_rereads_the_same_map_segments(self):
        splits = _splits(num_splits=self.M)
        before = _live_segments()
        plan = FaultPlan.script({("reduce", 0): 1})
        with MapReduceRuntime("processes", workers=2, fault_plan=plan,
                              shm_min_bytes=1024) as rt:
            res = rt.run(self.JOB, splits)
            assert rt.segments.live_count == 0
        assert _live_segments() <= before
        assert res.counters.get(TASK_RETRIES) == 1
        _assert_bitwise(res, self._oracle(self.JOB, splits))

    def test_attempt_that_dies_after_reading_leaves_the_buckets(self):
        job = Job(_emit_block_map, _fail_r1_after_reading,
                  conf=JobConf(num_reducers=self.R))
        splits = _splits(num_splits=self.M, n=400)
        before = _live_segments()
        with MapReduceRuntime("processes", workers=2,
                              shm_min_bytes=1024) as rt:
            res = rt.run(job, splits)
            assert rt.segments.live_count == 0
        assert _live_segments() <= before
        assert res.counters.get(TASK_RETRIES) == 1
        assert res.output == self._oracle(job, splits).output

    def test_run_split_between_parked_and_inline_buckets(self):
        """One map task's buckets clear the threshold, another's do not:
        a reducer's run then mixes segment handles and plain blocks."""
        splits = _splits(num_splits=3)
        splits[1] = [(1, tuple(col[:20] for col in splits[1][0][1]))]
        before = _live_segments()
        with MapReduceRuntime("processes", workers=2,
                              shm_min_bytes=1024) as rt:
            adopted = []
            adopt = rt.segments.adopt
            rt.segments.adopt = lambda name: (adopted.append(name),
                                              adopt(name))
            res = rt.run(self.JOB, splits)
        assert _live_segments() <= before
        assert sorted(name.rsplit("-", 1)[1] for name in adopted) == [
            "m0a0p0", "m0a0p1", "m2a0p0", "m2a0p1"]
        _assert_bitwise(res, self._oracle(self.JOB, splits))

    def test_reducer_with_an_empty_run(self):
        part, R = HashPartitioner(), 3
        keys = np.array([k for k in range(900) if part(k, R) != 1])
        rng = np.random.default_rng(3)
        splits = [[(m, (rng.permutation(keys), rng.random(len(keys))))]
                  for m in range(self.M)]
        job = Job(_emit_block_map, "sum", combine_fn="sum",
                  conf=JobConf(num_reducers=R))
        before = _live_segments()
        with MapReduceRuntime("processes", workers=2,
                              shm_min_bytes=1024) as rt:
            res = rt.run(job, splits)
        assert _live_segments() <= before
        _assert_bitwise(res, self._oracle(job, splits))
        assert len(res.columnar_output) == len(keys)
        out = run_reduce_task(1, 0, ColumnarRun([]), "sum").data
        assert isinstance(out, ColumnarBlock) and len(out) == 0


_TRACKER_RACE_SCRIPT = """
import numpy as np
from repro.engine import Job, JobConf, MapReduceRuntime
from repro.engine.shm import SHM_MIN_BYTES


class FatMap:
    def __init__(self):
        self.table = np.arange(2 * SHM_MIN_BYTES // 8, dtype=np.float64)

    def __call__(self, key, value, ctx):
        ctx.emit_block(np.arange(8) + key, self.table[:8])


if __name__ == "__main__":
    job = Job(FatMap(), "sum", conf=JobConf(num_reducers=2))
    with MapReduceRuntime("processes", workers=2) as rt:
        for _ in range(30):
            res = rt.run(job, [[(m, None)] for m in range(4)])
            assert len(res.output) == 11
    print("done")
"""


def test_attaching_leaves_the_resource_tracker_alone(tmp_path):
    """Two pooled workers attach the same parked job function every
    run.  CPython <= 3.12 registers a segment with the (shared)
    resource tracker on attach; register, register, unregister,
    unregister is a ``KeyError`` traceback on the tracker's stderr."""
    script = tmp_path / "tracker_race.py"
    script.write_text(_TRACKER_RACE_SCRIPT)
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "done\n"
    assert proc.stderr == ""


class TestSpeculativeCancellation:
    """Racing twins park segments under disjoint attempt names; whoever
    loses — cancelled in the queue, or completed and discarded — must
    leave /dev/shm exactly as a speculation-free run would."""

    #: Aggressive LATE knobs so a stalled task is backed up within a few
    #: check intervals of the fast siblings finishing.
    SPEC = SpeculationConfig(slowdown_threshold=1.05, percentile=0.5,
                             min_completed_fraction=0.25,
                             check_interval=0.01)

    def test_losing_twin_segments_swept(self):
        """One map task stalls; its unstalled backup wins, and the
        stalled primary completes later into the discard path."""
        splits = _splits()
        before = _live_segments()
        plan = FaultPlan(stalls={("map", 1): 0.6})
        with MapReduceRuntime("processes", workers=3, fault_plan=plan,
                              shm_min_bytes=1024,
                              speculate=self.SPEC) as rt:
            res = rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                             conf=JobConf(num_reducers=3)), splits)
            assert res.counters.get(SPECULATIVE_BACKUPS) >= 1
            assert rt.segments.live_count == 0
        assert _live_segments() <= before
        with MapReduceRuntime("serial") as rt:
            oracle = rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                                conf=JobConf(num_reducers=3)), splits)
        assert res.output == oracle.output

    def test_job_abort_with_backups_in_flight(self):
        """A task exhausts its attempts while a stalled sibling (and
        possibly its backup twin) is still racing: the abort sweep must
        reclaim primary *and* backup attempt namespaces."""
        splits = _splits()
        before = _live_segments()
        plan = FaultPlan(scripted={("map", 2): 99},
                         stalls={("map", 1): 0.8})
        with MapReduceRuntime("processes", workers=3, fault_plan=plan,
                              shm_min_bytes=1024,
                              speculate=self.SPEC) as rt:
            with pytest.raises(JobFailedError):
                rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                           conf=JobConf(num_reducers=3, max_attempts=2)),
                       splits)
            assert rt.segments.live_count == 0
        assert _live_segments() <= before


class TestNodeDeathSweep:
    """A node death atomically kills every attempt of its failure
    domain — primaries, LATE backups, and completed outputs alike — and
    the lineage replay must leave /dev/shm exactly as a failure-free
    run would, with the output bit for bit identical."""

    SPEC = SpeculationConfig(slowdown_threshold=1.05, percentile=0.5,
                             min_completed_fraction=0.25,
                             check_interval=0.01)

    def _oracle(self, splits, num_reducers=3):
        with MapReduceRuntime("serial") as rt:
            return rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                              conf=JobConf(num_reducers=num_reducers)),
                          splits)

    def test_node_kill_with_backups_in_flight(self):
        """Task 1 stalls long enough for a speculative twin to launch;
        its node then dies with both attempts in flight.  All domain
        attempts must be cancelled or discarded, the replay attempt must
        win, and no segment may survive."""
        splits = _splits()
        before = _live_segments()
        stall = FaultPlan(stalls={("map", 1): 0.5})
        plan = NodeFaultPlan.kill_node(1, after_completions=1, num_nodes=4)
        with MapReduceRuntime("processes", workers=3, fault_plan=stall,
                              node_faults=plan, shm_min_bytes=1024,
                              speculate=self.SPEC) as rt:
            res = rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                             conf=JobConf(num_reducers=3)), splits)
            assert rt.segments.live_count == 0
        assert _live_segments() <= before
        assert res.counters.get(NODE_DEATHS) == 1
        assert res.output == self._oracle(splits).output

    def test_completed_outputs_invalidated_and_replayed(self):
        """The dead node already finished map work: those outputs are
        invalidated (lineage loss) and recomputed, bitwise identically."""
        splits = _splits(num_splits=8)
        before = _live_segments()
        plan = NodeFaultPlan.kill_node(0, after_completions=6, num_nodes=4)
        with MapReduceRuntime("processes", workers=3, node_faults=plan,
                              shm_min_bytes=1024) as rt:
            res = rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                             conf=JobConf(num_reducers=3)), splits)
            assert rt.segments.live_count == 0
        assert _live_segments() <= before
        assert res.counters.get(NODE_DEATHS) == 1
        assert res.counters.get(LOST_MAP_OUTPUTS) >= 1
        assert res.output == self._oracle(splits).output

    def test_rack_kill_under_speculation(self):
        """A whole rack dies: every node's domain is swept in one fire,
        and the job still completes identically, leak-free."""
        splits = _splits(num_splits=8)
        before = _live_segments()
        plan = NodeFaultPlan.kill_rack(0, after_completions=2,
                                       num_nodes=4, nodes_per_rack=2)
        with MapReduceRuntime("processes", workers=3, node_faults=plan,
                              shm_min_bytes=1024, speculate=self.SPEC) as rt:
            res = rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                             conf=JobConf(num_reducers=3)), splits)
            assert rt.segments.live_count == 0
        assert _live_segments() <= before
        assert res.counters.get(NODE_DEATHS) == 2
        assert res.output == self._oracle(splits).output


def _scripted_map(key, value, ctx):
    """Emit the split's block after ``delay`` seconds, or blow up."""
    keys, values, delay, boom = value
    time.sleep(delay)
    if boom:
        raise RuntimeError("boom")
    ctx.emit_block(keys, values)


class TestOneDriver:
    """Every executor runs every phase through the one event-driven
    driver; retries, LATE backups and node-death replays are all just
    another attempt of the same task."""

    JOB = Job(_emit_block_map, "sum", combine_fn="sum",
              conf=JobConf(num_reducers=3, max_attempts=3))

    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_retries_and_stall_match_the_oracle(self, executor):
        splits = _splits()
        plan = FaultPlan(scripted={("map", 1): 2, ("reduce", 0): 1},
                         stalls={("map", 0): 0.05})
        with MapReduceRuntime("serial") as rt:
            oracle = rt.run(self.JOB, splits)
        with MapReduceRuntime(executor, workers=2, fault_plan=plan,
                              shm_min_bytes=1024) as rt:
            res = rt.run(self.JOB, splits)
            assert rt.segments.live_count == 0
        assert res.output == oracle.output
        assert res.counters.get(TASK_RETRIES) == 3
        assert oracle.counters.get(TASK_RETRIES) == 0

    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_exhausted_attempts_name_the_task(self, executor):
        plan = FaultPlan.script({("map", 2): 99})
        with MapReduceRuntime(executor, workers=2, fault_plan=plan) as rt:
            with pytest.raises(JobFailedError, match="map task 2 failed 3"):
                rt.run(self.JOB, _splits())

    def test_abort_with_backup_and_replay_in_flight(self):
        """Split 2 raises a real error while split 1 (slow, so backed
        up) and split 3 (slow, its node killed, so replayed) still have
        two attempts each running.  The abort waits them out and sweeps
        exactly the attempts the driver spawned — there is no namespace
        to probe — leaving /dev/shm as it found it."""
        script = {1: (0.6, False), 2: (0.25, True), 3: (0.6, False)}
        splits = [[(m, (*value, *script.get(m, (0.0, False))))]
                  for [(m, value)] in _splits(num_splits=6)]
        spec = SpeculationConfig(slowdown_threshold=1.05, percentile=0.5,
                                 min_completed_fraction=0.25,
                                 check_interval=0.01)
        before = _live_segments()
        with MapReduceRuntime(
                "processes", workers=8, shm_min_bytes=1024, speculate=spec,
                node_faults=NodeFaultPlan.kill_node(
                    3, after_completions=1, num_nodes=6)) as rt:
            swept = []
            sweep = rt.segments.sweep
            rt.segments.sweep = lambda prefix, spawned, r: swept.append(
                (list(spawned), sweep(prefix, spawned, r)))
            job = Job(_scripted_map, "sum", combine_fn="sum",
                      conf=self.JOB.conf)
            with pytest.raises(RuntimeError, match="boom"):
                rt.run(job, splits)
            assert rt.segments.live_count == 0
        assert _live_segments() <= before
        [(spawned, reclaimed)] = swept
        # one primary per split, plus the extra attempts (numbered from
        # max_attempts up) of the backed-up and the replayed task
        assert {("map", m, 0) for m in range(6)} <= set(spawned)
        assert {("map", 1, 3), ("map", 3, 3)} <= set(spawned)
        assert len(spawned) == len(set(spawned))
        assert reclaimed >= 4  # both attempts of splits 1 and 3 parked


class TestPickleRef:
    def test_small_objects_pass_through(self):
        assert export_pickled("sum", "reproshm-test-tiny") == "sum"
        assert not glob.glob("/dev/shm/*reproshm-test-tiny*")

    def test_fat_payload_parks_and_caches(self):
        payload = {"arr": np.arange(50_000)}
        ref = export_pickled(payload, "reproshm-test-fat", min_bytes=1024)
        try:
            assert isinstance(ref, ShmPickleRef)
            first = ref.load()
            assert np.array_equal(first["arr"], payload["arr"])
            # Same name -> the cached object, no second attach/unpickle.
            assert ref.load() is first
        finally:
            assert _unlink_quietly("reproshm-test-fat")
            _PICKLE_CACHE.clear()

    def test_arrays_ship_out_of_band_and_load_private(self):
        big = np.arange(40_000, dtype=np.float64)
        payload = {"big": big, "view": big[5:9], "strided": big[::2],
                   "empty": np.empty((0, 3)), "words": ["a", "b"]}
        ref = export_pickled(payload, "reproshm-test-oob", min_bytes=1024)
        try:
            # specs[0] is the pickle stream, then one buffer per
            # contiguous array: ``big``'s bytes are not in the stream
            assert len(ref.specs) > 1
            assert ref.specs[0][0][0] < big.nbytes <= ref.nbytes
            got = ref.load()
        finally:
            assert _unlink_quietly("reproshm-test-oob")
            _PICKLE_CACHE.clear()
        assert got["words"] == ["a", "b"]
        for name in ("big", "view", "strided", "empty"):
            assert np.array_equal(got[name], payload[name])
            assert got[name].dtype == payload[name].dtype
        # the segment is gone: loaded arrays own private, writable memory
        got["big"][0] = -1.0
        assert big[0] == 0.0

    def test_load_evicts_other_runs(self):
        # names are unique per run, so a pooled worker must not keep the
        # previous run's job function alive once a new run arrives
        names = ["reproshm-test-1-f", "reproshm-test-1-rf",
                 "reproshm-test-2-f"]
        payload = {"arr": np.arange(5_000)}
        try:
            f1, rf1, f2 = (export_pickled(payload, n, min_bytes=1024)
                           for n in names)
            f1.load(), rf1.load()
            assert set(_PICKLE_CACHE) == {f1.name, rf1.name}  # one run's pair
            f2.load()
            assert set(_PICKLE_CACHE) == {f2.name}
        finally:
            for n in names:
                _unlink_quietly(n)
            _PICKLE_CACHE.clear()
