"""Shared-memory transport: parity, ownership, and leak-freedom.

The shm transport is an *optimisation of the wire*, not of the shuffle:
every job routed through named segments must produce output bitwise
identical to the same job through the pickle pipe, and every segment a
job creates must be gone — clean finish, task retries, or abort — by
the time ``run`` returns: one sweep of the run's spawn ledger unlinks
them all.
"""

from __future__ import annotations

import errno
import gc
import glob
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import time
import uuid
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from repro.engine.columnar import group_columnar
from repro.engine.runtime import MAX_ATTEMPTS
from repro.engine.counters import (
    LOST_MAP_OUTPUTS,
    NODE_DEATHS,
    SPECULATIVE_BACKUPS,
    TASK_RETRIES,
)
from repro.engine.shm import (
    _PICKLE_CACHE,
    SegmentRegistry,
    ShmGroupsRef,
    _read_segment,
    _unlink_quietly,
    _write_segment,
    export_block,
    export_groups,
    export_pickled,
    export_splits,
)

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


def run_segments() -> "list[str]":
    """The runtime segments of this process still in ``/dev/shm``: every
    run prefix embeds the driver's pid (the glob of perfbench's
    ``shm_segments`` leak probe).  What the OS holds, not a count kept
    by the code under test."""
    return glob.glob(f"/dev/shm/reproshm-{os.getpid():x}-*")


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
                assert run_segments() == []
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
        plan = FaultPlan(scripted={("map", 1): 1, ("map", 3): 2,
                                 ("reduce", 0): 1})
        with MapReduceRuntime("processes", workers=2, fault_plan=plan,
                              shm_min_bytes=1024) as rt:
            faulty = rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                                conf=JobConf(num_reducers=3)), splits)
            assert run_segments() == []
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
            assert run_segments() == []
        assert _live_segments() <= before

    def test_zero_segments_after_midjob_failure(self):
        """Task retries park fresh segments; none of them may leak."""
        before = _live_segments()
        plan = FaultPlan(scripted={("map", 0): 1, ("reduce", 1): 1})
        with MapReduceRuntime("processes", workers=2, fault_plan=plan,
                              shm_min_bytes=1024) as rt:
            rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                       conf=JobConf(num_reducers=3)), _splits())
            assert run_segments() == []
        assert _live_segments() <= before

    def test_abort_sweep_reclaims_everything(self):
        """A job that dies mid-flight sweeps its whole namespace."""
        before = _live_segments()
        plan = FaultPlan(scripted={("map", 2): 99})  # exceeds MAX_ATTEMPTS
        with MapReduceRuntime("processes", workers=2, fault_plan=plan,
                              shm_min_bytes=1024) as rt:
            with pytest.raises(JobFailedError):
                rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                           conf=JobConf(num_reducers=3)),
                       _splits())
            assert run_segments() == []
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
                assert run_segments() == []
        assert _live_segments() <= before
        _assert_bitwise(res, self._oracle(self.JOB, splits))
        consumed = [name for name, unlink in takes if unlink]
        assert len(consumed) == self.R * runs
        assert all(re.search(r"-r\d+a0$", name) for name in consumed)
        assert not any(re.search(r"-g\d+$", name) for name in created)
        # The functions are thin (no f/rf), but the splits' arrays clear
        # the threshold: the driver parks them in one ``s`` per run.
        if executor == "processes":
            assert len(takes) == self.R * runs  # no map bucket read here
            assert [n.rsplit("-", 1)[1] for n in created] == ["s"] * runs
        else:
            in_place = [name for name, unlink in takes if not unlink]
            assert len(in_place) == self.M * self.R * runs
            assert len(created) == (self.M * self.R + self.R + 1) * runs

    def test_reduce_retry_rereads_the_same_map_segments(self):
        splits = _splits(num_splits=self.M)
        before = _live_segments()
        plan = FaultPlan(scripted={("reduce", 0): 1})
        with MapReduceRuntime("processes", workers=2, fault_plan=plan,
                              shm_min_bytes=1024) as rt:
            res = rt.run(self.JOB, splits)
            assert run_segments() == []
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
            assert run_segments() == []
        assert _live_segments() <= before
        assert res.counters.get(TASK_RETRIES) == 1
        assert res.output == self._oracle(job, splits).output

    def test_run_split_between_parked_and_inline_buckets(self,
                                                         monkeypatch):
        """One map task's buckets clear the threshold, another's do not:
        a reducer's run then mixes segment handles and plain blocks.
        The parked buckets are in ``/dev/shm`` when the reduce phase
        starts, and gone when the run returns."""
        splits = _splits(num_splits=3)
        splits[1] = [(1, tuple(col[:20] for col in splits[1][0][1]))]
        at_start = {}
        real_run_phase = MapReduceRuntime._run_phase

        def run_phase(rt, *, phase, **kwargs):
            at_start[phase] = sorted(path.rsplit("-", 1)[1]
                                     for path in run_segments())
            return real_run_phase(rt, phase=phase, **kwargs)

        monkeypatch.setattr(MapReduceRuntime, "_run_phase", run_phase)
        before = _live_segments()
        with MapReduceRuntime("processes", workers=2,
                              shm_min_bytes=1024) as rt:
            res = rt.run(self.JOB, splits)
            assert run_segments() == []
        assert _live_segments() <= before
        # ``s``: the run's splits, parked by the driver (their arrays
        # clear the threshold together); task 1's buckets stay inline.
        assert at_start == {
            "map": ["s"],
            "reduce": ["m0a0p0", "m0a0p1", "m2a0p0", "m2a0p1", "s"]}
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
import multiprocessing
from multiprocessing import resource_tracker

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
    if multiprocessing.get_start_method() == "fork":
        # nothing was ever registered: no tracker process was started
        assert resource_tracker._resource_tracker._pid is None
    print("done")
"""


def test_attaching_leaves_the_resource_tracker_alone(tmp_path):
    """Two pooled workers attach the same parked job function every
    run.  CPython <= 3.12 registers a segment with the (shared)
    resource tracker on attach; register, register, unregister,
    unregister is a ``KeyError`` traceback on the tracker's stderr.
    The transport opens segments itself and registers nothing, so under
    the fork start method the tracker is not even running."""
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

    def test_losing_twin_segments_swept(self):
        """One map task stalls; its unstalled backup wins, and the
        stalled primary completes later into the discard path."""
        splits = _splits()
        before = _live_segments()
        plan = FaultPlan(stalls={("map", 1): 0.6})
        with MapReduceRuntime("processes", workers=3, fault_plan=plan,
                              shm_min_bytes=1024,
                              speculate=True) as rt:
            res = rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                             conf=JobConf(num_reducers=3)), splits)
            assert res.counters.get(SPECULATIVE_BACKUPS) >= 1
            assert run_segments() == []
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
                              speculate=True) as rt:
            with pytest.raises(JobFailedError):
                rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                           conf=JobConf(num_reducers=3)),
                       splits)
            assert run_segments() == []
        assert _live_segments() <= before


class TestNodeDeathSweep:
    """A node death atomically kills every attempt of its failure
    domain — primaries, LATE backups, and completed outputs alike — and
    the lineage replay must leave /dev/shm exactly as a failure-free
    run would, with the output bit for bit identical."""

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
                              speculate=True) as rt:
            res = rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                             conf=JobConf(num_reducers=3)), splits)
            assert run_segments() == []
        assert _live_segments() <= before
        assert res.counters.get(NODE_DEATHS) == 1
        assert res.output == self._oracle(splits).output

    def test_completed_outputs_invalidated_and_replayed(self):
        """The dead node already finished map work: those outputs are
        invalidated (lineage loss) and recomputed, bitwise identically.

        Node 0 owns tasks 0 and 4 of the 8; the death fires once 7 maps
        have completed, so at least one of its two outputs is done
        whatever order the workers finish in."""
        splits = _splits(num_splits=8)
        before = _live_segments()
        plan = NodeFaultPlan.kill_node(0, after_completions=7, num_nodes=4)
        with MapReduceRuntime("processes", workers=3, node_faults=plan,
                              shm_min_bytes=1024) as rt:
            res = rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                             conf=JobConf(num_reducers=3)), splits)
            assert run_segments() == []
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
                              shm_min_bytes=1024, speculate=True) as rt:
            res = rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                             conf=JobConf(num_reducers=3)), splits)
            assert run_segments() == []
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
              conf=JobConf(num_reducers=3))

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
            assert run_segments() == []
        assert res.output == oracle.output
        assert res.counters.get(TASK_RETRIES) == 3
        assert oracle.counters.get(TASK_RETRIES) == 0

    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_exhausted_attempts_name_the_task(self, executor):
        plan = FaultPlan(scripted={("map", 2): MAX_ATTEMPTS})
        with MapReduceRuntime(executor, workers=2, fault_plan=plan) as rt:
            with pytest.raises(JobFailedError, match="map task 2 failed 4"):
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
        before = _live_segments()
        with MapReduceRuntime(
                "processes", workers=8, shm_min_bytes=1024, speculate=True,
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
            assert run_segments() == []
        assert _live_segments() <= before
        [(spawned, reclaimed)] = swept
        # one primary per split, plus the extra attempts (numbered from
        # MAX_ATTEMPTS up) of the backed-up and the replayed task
        assert {("map", m, 0) for m in range(6)} <= set(spawned)
        assert {("map", 1, 4), ("map", 3, 4)} <= set(spawned)
        assert len(spawned) == len(set(spawned))
        assert reclaimed >= 4  # both attempts of splits 1 and 3 parked


def _fresh_name():
    return f"reproshm-test-{os.getpid():x}-{uuid.uuid4().hex[:8]}"


@pytest.fixture
def name():
    """A segment name of this test's own, swept afterwards."""
    name = _fresh_name()
    yield name
    _unlink_quietly(name)
    _PICKLE_CACHE.clear()


def _block(n=5000):
    return ColumnarBlock(np.arange(n), np.arange(n, dtype=np.float64) / 7)


def _fat_function():
    """Stands in for a job function closing over one big array."""
    return {"table": np.arange(20_000, dtype=np.float64)}


def _mappings(name):
    """This process's live mappings of segment ``name``."""
    with open("/proc/self/maps") as maps:
        return [line for line in maps if name in line]


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _exists(name):
    return os.path.exists(f"/dev/shm/{name}")


class TestInPlaceContract:
    """What a reader holds is a private copy-on-write view of the
    segment, owned by the arrays themselves (docs/shm_transport.md):
    writable, invisible to everyone else, alive as long as any of them
    is and no longer, whatever happens to the segment's name."""

    # -- (a) privacy ---------------------------------------------------
    def test_a_write_reaches_neither_the_segment_nor_a_second_reader(
            self, name):
        block = _block()
        ref = export_block(block, name, min_bytes=1024)
        mine = ref.take(unlink=False)
        assert mine.keys.flags.writeable and mine.values.flags.writeable
        mine.keys[:] = -1
        mine.values[7] = np.nan
        again = ref.take(unlink=False)
        assert np.array_equal(again.keys, block.keys)
        assert again.values.tobytes() == block.values.tobytes()
        raw = Path("/dev/shm", name).read_bytes()
        assert raw[:block.keys.nbytes] == block.keys.tobytes()
        assert mine.keys[0] == -1 and np.isnan(mine.values[7])

    def test_a_write_into_a_loaded_function_stays_in_that_load(self, name):
        payload = _fat_function()
        ref = export_pickled(payload, name, min_bytes=1024)
        first = ref.load()
        first["table"][:100] = -1.0
        _PICKLE_CACHE.clear()  # what another worker, or a new run, sees
        fresh = ref.load()
        assert fresh is not first
        assert np.array_equal(fresh["table"], payload["table"])
        assert first["table"][0] == -1.0

    def test_forked_processes_do_not_see_each_others_writes(self, name):
        ref = export_block(_block(), name, min_bytes=1024)
        view = ref.take(unlink=False)
        ctx = multiprocessing.get_context("fork")
        here, there = ctx.Pipe()

        def child():
            view.keys[0] = -1
            there.send("wrote")
            there.recv()  # the parent has written keys[1] by now
            there.send((int(view.keys[0]), int(view.keys[1])))

        proc = ctx.Process(target=child, daemon=True)
        proc.start()
        try:
            assert here.poll(30) and here.recv() == "wrote"
            assert view.keys[0] == 0
            view.keys[1] = -2
            here.send("wrote")
            assert here.poll(30) and here.recv() == (-1, 1)
            proc.join(30)
            assert proc.exitcode == 0
        finally:
            proc.kill()  # a child still waiting for us must not outlive this
            proc.join(30)
        assert np.array_equal(ref.take(unlink=False).keys, _block().keys)

    # -- (b) lifetime --------------------------------------------------
    def test_arrays_outlive_the_sweep_and_the_ref(self):
        block = _block()
        registry = SegmentRegistry()
        prefix = registry.new_prefix()
        name = f"{prefix}m0a0p0"  # map task 0's first bucket
        try:
            ref = export_block(block, name, min_bytes=1024)
            kept = ref.take(unlink=False)
            specs = ref.specs
            assert registry.sweep(prefix, [("map", 0, 0)], 1) == 1
        finally:
            _unlink_quietly(name)
        assert not _exists(name)
        del ref
        gc.collect()
        assert np.array_equal(kept.keys, block.keys)
        assert kept.values.tobytes() == block.values.tobytes()
        with pytest.raises(FileNotFoundError):
            _read_segment(name, specs, unlink=False)

    def test_a_consumed_block_outlives_its_own_unlink(self, name):
        block = _block()
        taken = export_block(block, name, min_bytes=1024).take()
        assert not _exists(name)
        assert np.array_equal(taken.keys, block.keys)
        assert taken.values.tobytes() == block.values.tobytes()

    def test_a_loaded_function_outlives_the_runs_unlink(self, name):
        payload = _fat_function()
        got = export_pickled(payload, name, min_bytes=1024).load()
        assert _unlink_quietly(name) and not _unlink_quietly(name)
        _PICKLE_CACHE.clear()
        gc.collect()
        assert np.array_equal(got["table"], payload["table"])

    # -- (c) layout ----------------------------------------------------
    DTYPES = ["u1", "i2", "<i4", "<i8", "<f4", "<f8", "?", "<c16", ">i4"]
    LAYOUTS = ["c", "fortran", "strided", "transposed", "reversed"]

    @settings(deadline=None, max_examples=120)
    @given(st.lists(st.tuples(st.sampled_from(DTYPES),
                              st.sampled_from([(0,), (1,), (5,), (0, 3),
                                               (3, 0), (4, 3), (2, 3, 5),
                                               (1031,)]),
                              st.sampled_from(LAYOUTS)),
                    max_size=6),
           st.integers(0, 2 ** 32 - 1))
    def test_any_arrays_round_trip(self, layout, seed):
        rng = np.random.default_rng(seed)

        def draw(shape):
            return rng.integers(0, 256, shape).astype(dtype)

        arrays = []
        for dtype, shape, order in layout:
            arr = {
                "c": lambda: draw(shape),
                "fortran": lambda: np.asfortranarray(draw(shape)),
                "strided": lambda: draw(tuple(2 * d for d in shape))[
                    tuple(slice(None, None, 2) for _ in shape)],
                "transposed": lambda: draw(shape[::-1]).T,
                "reversed": lambda: draw(shape)[::-1],
            }[order]()
            assert arr.shape == shape
            arrays.append(arr)
        name = _fresh_name()
        try:
            specs = _write_segment(name, arrays)
            size = os.stat(f"/dev/shm/{name}").st_size
            out = _read_segment(name, specs, unlink=True)
        finally:
            _unlink_quietly(name)
        assert len(out) == len(arrays)
        end = 0
        for got, want, (shape, dtype, off) in zip(out, arrays, specs):
            assert off % 8 == 0 and off >= end
            end = off + want.nbytes
            assert got.shape == want.shape == shape
            assert got.dtype == want.dtype == np.dtype(dtype)
            assert np.array_equal(got, want)
            assert got.flags.c_contiguous and got.flags.writeable
            assert got.flags.aligned
        assert size == max(1, (end + 7) & ~7)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 40), st.integers(0, 9))
    def test_buffers_after_an_odd_length_pickle_stream_stay_aligned(
            self, pad, rows):
        payload = {"pad": "x" * pad,
                   "a": np.arange(rows * 3, dtype=np.float64).reshape(rows, 3),
                   "b": np.arange(300, dtype=np.int64)}
        name = _fresh_name()
        try:
            ref = export_pickled(payload, name, min_bytes=0)
            got = ref.load()
        finally:
            _unlink_quietly(name)
            _PICKLE_CACHE.clear()
        assert ref.specs[0][0][0] == len(pickle.dumps(
            payload, protocol=5, buffer_callback=lambda b: None))
        assert all(off % 8 == 0 for _, _, off in ref.specs)
        assert got["pad"] == payload["pad"]
        for key in ("a", "b"):
            assert np.array_equal(got[key], payload[key])
            assert got[key].dtype == payload[key].dtype
            assert got[key].flags.aligned and got[key].flags.writeable

    def test_a_segment_of_nothing_is_one_byte(self, name):
        specs = _write_segment(name, [np.empty(0), np.empty((0, 3), "i8")])
        assert os.stat(f"/dev/shm/{name}").st_size == 1
        first, second = _read_segment(name, specs, unlink=True)
        assert first.shape == (0,) and first.dtype == np.float64
        assert second.shape == (0, 3) and second.dtype == np.int64
        assert not _exists(name)

    def test_short_writes_are_finished(self, name, monkeypatch):
        real, sizes = os.pwrite, []

        def short(fd, data, offset):
            sizes.append(len(data))
            return real(fd, memoryview(data)[:4096], offset)

        monkeypatch.setattr(os, "pwrite", short)
        block = _block(30_000)
        taken = export_block(block, name, min_bytes=1024).take()
        assert np.array_equal(taken.keys, block.keys)
        assert taken.values.tobytes() == block.values.tobytes()
        per_array = -(-block.keys.nbytes // 4096)
        assert len(sizes) == 2 * per_array and min(sizes) <= 4096

    # -- (d) in place; no leak of a mapping or a descriptor ------------
    def test_a_taken_block_is_the_mapping_until_its_last_array_dies(
            self, name):
        ref = export_block(_block(), name, min_bytes=1024)
        assert _mappings(name) == []  # the producer mapped nothing
        taken = ref.take(unlink=False)
        assert len(_mappings(name)) == 1
        keys = taken.keys
        del taken
        gc.collect()
        assert len(_mappings(name)) == 1  # one array is enough
        assert keys[-1] == 4999
        del keys
        gc.collect()
        assert _mappings(name) == []

    def test_a_loaded_function_is_the_mapping_until_evicted(self, name):
        payload = _fat_function()
        ref = export_pickled(payload, name, min_bytes=1024)
        got = ref.load()
        assert len(_mappings(name)) == 1
        del got
        gc.collect()
        assert len(_mappings(name)) == 1  # the worker's cache holds it
        _PICKLE_CACHE.clear()
        gc.collect()
        assert _mappings(name) == []

    def test_cycles_leave_no_descriptor_and_no_mapping(self, name):
        block = _block()
        payload = _fat_function()
        gc.collect()
        before = _open_fds()
        for _ in range(50):
            taken = export_block(block, name, min_bytes=1024).take()
            assert taken.keys[-1] == 4999
            ref = export_pickled(payload, f"{name}-f", min_bytes=1024)
            assert ref.load()["table"][-1] == 19_999.0
            assert _unlink_quietly(ref.name)
            _PICKLE_CACHE.clear()
        del taken
        gc.collect()
        assert _open_fds() == before
        assert _mappings(name) == []
        assert not _exists(name) and not _exists(f"{name}-f")


def _tmpfs_fills_up(monkeypatch, after):
    """``os.pwrite`` succeeds ``after`` times, then the tmpfs is full."""
    real, calls = os.pwrite, []

    def pwrite(fd, data, offset):
        calls.append(offset)
        if len(calls) > after:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", pwrite)
    return calls


class TestFullTmpfs:
    """Writing through the descriptor turns a full ``/dev/shm`` into an
    ``OSError`` (a store through a mapping would be a ``SIGBUS``): the
    partial segment is unlinked and the error names it."""

    def test_the_partial_segment_is_unlinked_and_named(self, name,
                                                        monkeypatch):
        calls = _tmpfs_fills_up(monkeypatch, after=1)
        block = _block()
        before = _open_fds()
        with pytest.raises(OSError) as err:
            export_block(block, name, min_bytes=1024)
        assert len(calls) == 2  # keys went in, values did not
        assert err.value.errno == errno.ENOSPC
        assert name in str(err.value)
        assert f"{block.keys.nbytes + block.values.nbytes} bytes" \
            in str(err.value)
        assert not _exists(name)
        assert _open_fds() == before

    def test_a_name_already_taken_is_not_unlinked(self, name):
        export_block(_block(), name, min_bytes=1024)
        with pytest.raises(FileExistsError):
            export_block(_block(), name, min_bytes=1024)
        assert _exists(name)

    def test_the_job_fails_with_it_and_leaves_dev_shm_as_found(
            self, monkeypatch):
        """A real error is not retried (only simulated task failures
        are): the job fails with the first attempt's ``OSError``, and
        the abort sweep reclaims the buckets parked before it."""
        before = _live_segments()
        calls = _tmpfs_fills_up(monkeypatch, after=3)
        with MapReduceRuntime("threads", workers=2, shm_transport=True,
                              shm_min_bytes=1024) as rt:
            with pytest.raises(OSError, match="reproshm-.*bytes") as err:
                rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                           conf=JobConf(num_reducers=3)),
                       _splits())
            assert err.value.errno == errno.ENOSPC
            assert run_segments() == []
        assert len(calls) > 3
        assert _live_segments() <= before


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


def _log_line(path, text):
    with open(path, "a") as log:  # one short O_APPEND write per line
        log.write(text + "\n")


class _Tagged:
    """An object-heavy split payload (thousands of small Python objects,
    no out-of-band buffer) that logs which process unpickles it."""

    def __init__(self, tag, path, words=2000):
        self.tag, self.path = tag, path
        self.words = [f"w{tag}-{i}" for i in range(words)]

    def __setstate__(self, state):
        self.__dict__.update(state)
        _log_line(self.path, f"load {os.getpid()} {self.tag}")


def _tagged_map(key, value, ctx):
    _log_line(value.path, f"map {os.getpid()} {key}")
    ctx.emit_block(np.arange(100) + key, np.full(100, float(len(value.words))))


def _fail_m1_once_after_reading(key, value, ctx):
    """Map task 1's first attempt dies after its split was loaded."""
    if ctx.task_id == "m1" and ctx.attempt == 0:
        raise SimulatedTaskFailure("map 1 dies mid-task")
    _emit_block_map(key, value, ctx)


class _FatBlockMap:
    """A map function whose pickle clears the threshold (parked as f)."""

    def __init__(self):
        self.table = np.arange(20_000, dtype=np.float64)

    def __call__(self, key, value, ctx):
        keys, values = value
        ctx.emit_block(keys, values + self.table[1])


def _record_writes(monkeypatch):
    """Record ``(name, size)`` of every segment this process writes."""
    real, written = shm._write_segment, []

    def write(name, arrays):
        specs = real(name, arrays)
        written.append((name, os.stat(f"/dev/shm/{name}").st_size))
        return specs

    monkeypatch.setattr(shm, "_write_segment", write)
    return written


def _split_segments(written):
    return [(n, size) for n, size in written if n.endswith("-s")]


def _split_segment_fails(monkeypatch, err):
    """Writes into a run's split segment fail with ``err``, all others
    succeed — in forked workers too, which only write other segments.
    Returns the name of each segment whose write failed."""
    real, failed = os.pwrite, []

    def pwrite(fd, data, offset):
        name = os.readlink(f"/proc/self/fd/{fd}").rsplit("/", 1)[1]
        if name.endswith("-s"):
            failed.append(name)
            raise OSError(err, os.strerror(err))
        return real(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", pwrite)
    return failed


def _same(got, want):
    """Deep equality that also compares array dtype, shape and flags."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        # as under the serial executor: read-only stays read-only
        assert got.flags.writeable == want.flags.writeable
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want)
        for g, w in zip(got, want):
            _same(g, w)
    elif isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            _same(got[key], want[key])
    else:
        assert got == want


def _arrays_in(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays_in(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays_in(item)


class TestSplitSegment:
    """A run's input splits ride one driver-created segment ``{prefix}s``:
    each split pickled alone, their out-of-band buffers written once per
    distinct memory area, each map attempt handed a small ref to its own
    stream (docs/shm_transport.md)."""

    JOB = Job(_emit_block_map, "sum", combine_fn="sum",
              conf=JobConf(num_reducers=3))

    def _oracle(self, job, splits):
        with MapReduceRuntime("serial") as rt:
            return rt.run(job, splits)

    def test_four_splits_sharing_one_array_write_it_once(self, name):
        shared = np.arange(50_000, dtype=np.float64)  # 400 KB
        splits = [[(p, shared)] for p in range(4)]
        refs = export_splits(splits, name, min_bytes=1024)
        streams = [len(pickle.dumps(s, protocol=5,
                                    buffer_callback=lambda b: None))
                   for s in splits]
        size = os.stat(f"/dev/shm/{name}").st_size
        assert size == shared.nbytes + sum((n + 7) & ~7 for n in streams)
        assert sum(streams) < 1024  # about one array plus four streams
        assert len({ref.specs[1] for ref in refs}) == 1  # one buffer
        first, second = refs[0].load(), refs[1].load()
        assert first[0][0] == 0 and second[0][0] == 1
        assert np.array_equal(first[0][1], shared)
        first[0][1][:] = -1.0  # private to this load
        assert np.array_equal(second[0][1], shared)
        assert np.array_equal(refs[0].load()[0][1], shared)

    @pytest.mark.parametrize("executor", ["processes", "threads"])
    def test_a_run_parks_its_splits_once(self, executor, monkeypatch):
        shared = np.arange(50_000, dtype=np.float64)
        keys = np.arange(50_000) % 997
        splits = [[(p, (keys, shared))] for p in range(4)]
        written = _record_writes(monkeypatch)
        before = _live_segments()
        with MapReduceRuntime(executor, workers=2, shm_transport=True,
                              shm_min_bytes=1024) as rt:
            for _ in range(2):
                res = rt.run(self.JOB, splits)
                assert run_segments() == []
        assert _live_segments() <= before
        _assert_bitwise(res, self._oracle(self.JOB, splits))
        parked = _split_segments(written)
        assert len(parked) == 2 and parked[0][0] != parked[1][0]
        # the two arrays once each, not once per split
        for _, size in parked:
            assert keys.nbytes + shared.nbytes < size \
                < keys.nbytes + shared.nbytes + 4096

    def test_an_object_heavy_split_is_unpickled_by_its_own_task_only(
            self, tmp_path, monkeypatch):
        log = tmp_path / "loads.txt"
        splits = [[(m, _Tagged(m, str(log)))] for m in range(4)]
        job = Job(_tagged_map, "sum", conf=JobConf(num_reducers=2))
        written = _record_writes(monkeypatch)
        with MapReduceRuntime("processes", workers=2,
                              shm_min_bytes=1024) as rt:
            res = rt.run(job, splits)
        assert len(_split_segments(written)) == 1
        lines = [line.split() for line in log.read_text().splitlines()]
        loads = sorted((pid, int(tag)) for kind, pid, tag in lines
                       if kind == "load")
        maps = sorted((pid, int(key)) for kind, pid, key in lines
                      if kind == "map")
        # each split once, in the process that maps it; the driver and
        # the other tasks never parse it
        assert sorted(tag for _, tag in loads) == [0, 1, 2, 3]
        assert loads == maps
        assert str(os.getpid()) not in {pid for pid, _ in loads}
        assert res.output == self._oracle(job, splits).output

    @pytest.mark.parametrize("case", ["retry", "backup", "replay"])
    def test_every_attempt_rereads_the_same_segment(self, case, tmp_path,
                                                    monkeypatch):
        """A retry, a LATE backup and a node-death replay each load the
        split again, from the one segment the run parked, and the output
        stays bitwise the serial executor's."""
        log = tmp_path / "loads.txt"
        real_load = shm.ShmSplitRef.load

        def load(ref):
            _log_line(str(log), f"{ref.name} {ref.specs[0][2]}")
            return real_load(ref)

        monkeypatch.setattr(shm.ShmSplitRef, "load", load)  # before the fork
        written = _record_writes(monkeypatch)
        job, kwargs, again = {
            "retry": (Job(_fail_m1_once_after_reading, "sum",
                          combine_fn="sum", conf=JobConf(num_reducers=3)),
                      {}, 1),
            "backup": (self.JOB, {
                "fault_plan": FaultPlan(stalls={("map", 1): 0.6}),
                "speculate": True}, 1),
            "replay": (self.JOB, {"node_faults": NodeFaultPlan.kill_node(
                0, after_completions=3, num_nodes=4)}, 0),
        }[case]
        splits = _splits()
        before = _live_segments()
        with MapReduceRuntime("processes", workers=3, shm_min_bytes=1024,
                              **kwargs) as rt:
            res = rt.run(job, splits)
            assert run_segments() == []
        assert _live_segments() <= before
        _assert_bitwise(res, self._oracle(job, splits))
        [(segment, _)] = _split_segments(written)
        reads = [line.split() for line in log.read_text().splitlines()]
        assert {name for name, _ in reads} == {segment}
        by_stream = Counter(int(offset) for _, offset in reads)
        assert len(by_stream) == len(splits)
        stream_of = sorted(by_stream)  # streams sit in split order
        assert by_stream[stream_of[again]] >= 2
        if case == "retry":
            assert res.counters.get(TASK_RETRIES) == 1
        elif case == "backup":
            assert res.counters.get(SPECULATIVE_BACKUPS) >= 1
        else:
            assert res.counters.get(NODE_DEATHS) == 1

    def test_an_aborted_job_leaves_dev_shm_as_found(self):
        script = {2: (0.05, True)}
        splits = [[(m, (*value, *script.get(m, (0.0, False))))]
                  for [(m, value)] in _splits()]
        before = _live_segments()
        with MapReduceRuntime("processes", workers=2,
                              shm_min_bytes=1024) as rt:
            with pytest.raises(RuntimeError, match="boom"):
                rt.run(Job(_scripted_map, "sum", combine_fn="sum",
                           conf=JobConf(num_reducers=3)), splits)
            assert run_segments() == []
        assert _live_segments() <= before

    @pytest.mark.parametrize("executor", ["processes", "threads"])
    def test_a_full_tmpfs_at_the_splits_falls_back_to_the_pipe(
            self, executor, monkeypatch):
        """The fat map function is parked, then the splits' segment hits
        a full ``/dev/shm``: the splits travel by pickle, as below the
        threshold, and the job finishes bitwise the serial executor's."""
        job = Job(_FatBlockMap(), "sum", combine_fn="sum",
                  conf=JobConf(num_reducers=3))
        splits = _splits()
        before = _live_segments()
        written = _record_writes(monkeypatch)
        failed = _split_segment_fails(monkeypatch, errno.ENOSPC)
        with MapReduceRuntime(executor, workers=2, shm_transport=True,
                              shm_min_bytes=1024) as rt:
            res = rt.run(job, splits)
            assert run_segments() == []
        assert len(failed) == 1 and failed[0].endswith("-s")
        assert not _exists(failed[0])
        assert [n for n, _ in written if n.endswith("-f")]
        assert _split_segments(written) == []
        assert _live_segments() <= before
        _assert_bitwise(res, self._oracle(job, splits))

    def test_another_error_while_parking_releases_what_was_parked(
            self, monkeypatch):
        """Only a full ``/dev/shm`` falls back.  Any other error at the
        splits' segment fails the job, and the parked ``f`` goes too."""
        before = _live_segments()
        failed = _split_segment_fails(monkeypatch, errno.EIO)
        with MapReduceRuntime("processes", workers=2,
                              shm_min_bytes=1024) as rt:
            with pytest.raises(OSError, match=r"reproshm-\S+-s ") as err:
                rt.run(Job(_FatBlockMap(), "sum", combine_fn="sum",
                           conf=JobConf(num_reducers=3)), _splits())
            assert err.value.errno == errno.EIO
            assert run_segments() == []
        assert len(failed) == 1
        assert _live_segments() <= before

    def test_sub_threshold_splits_create_no_segment(self, monkeypatch):
        splits = _splits(n=40)  # 4 x 640 B of arrays, below 64 KB
        assert export_splits(splits, "reproshm-test-unused") is splits
        written = _record_writes(monkeypatch)
        with MapReduceRuntime("processes", workers=2) as rt:
            res = rt.run(self.JOB, splits)
        assert _split_segments(written) == []
        assert not glob.glob("/dev/shm/*reproshm-test-unused*")
        _assert_bitwise(res, self._oracle(self.JOB, splits))

    def test_load_cycles_leave_no_descriptor_and_no_mapping(self, name):
        shared = np.arange(20_000, dtype=np.float64)
        splits = [[(p, shared)] for p in range(3)]
        gc.collect()
        before = _open_fds()
        for _ in range(30):
            refs = export_splits(splits, name, min_bytes=1024)
            for ref in refs:
                assert ref.load()[0][1][-1] == 19_999.0
            assert _unlink_quietly(name)
        del refs
        gc.collect()
        assert _open_fds() == before
        assert _mappings(name) == []

    KINDS = ["shared", "shared_view", "strided", "fortran", "transposed",
             "empty", "readonly", "object", "fresh"]

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.lists(st.sampled_from(KINDS), max_size=4),
                    min_size=1, max_size=4),
           st.integers(0, 2 ** 32 - 1))
    def test_any_splits_round_trip(self, layout, seed):
        rng = np.random.default_rng(seed)
        shared = rng.random(300)
        grid = np.asfortranarray(rng.random((4, 5)))
        frozen = rng.integers(-9, 9, 40)
        frozen.flags.writeable = False

        def make(kind):
            return {
                "shared": lambda: shared,
                "shared_view": lambda: shared[10:90],
                "strided": lambda: shared[::3],  # pickled in band
                "fortran": lambda: grid,
                "transposed": lambda: grid.T,  # grid's memory, C order
                "empty": lambda: np.empty((0, 3)),
                "readonly": lambda: frozen,
                "object": lambda: {"w": [f"x{i}" for i in
                                         range(int(rng.integers(0, 50)))],
                                   "t": (1, 2.5, None, "é")},
                "fresh": lambda: rng.integers(-5, 5, int(rng.integers(0, 200))),
            }[kind]()

        splits = [[(i, [make(kind) for kind in kinds])]
                  for i, kinds in enumerate(layout)]
        # what the segment must hold: every stream, and each distinct
        # out-of-band memory area once
        streams, areas = 0, {}
        for split in splits:
            bufs = []
            streams += (len(pickle.dumps(split, protocol=5,
                                         buffer_callback=bufs.append))
                        + 7) & ~7
            for buf in bufs:
                raw = np.frombuffer(buf.raw(), dtype=np.uint8)
                areas[(raw.ctypes.data, raw.nbytes)] = raw.nbytes
        name = _fresh_name()
        try:
            refs = export_splits(splits, name, min_bytes=0)
            size = os.stat(f"/dev/shm/{name}").st_size
            loaded = [ref.load() for ref in refs]
            for got in loaded:
                for arr in _arrays_in(got):
                    if arr.flags.writeable and arr.size:
                        arr[...] = 0
            again = [ref.load() for ref in refs]
        finally:
            _unlink_quietly(name)
        assert size == max(1, streams + sum((n + 7) & ~7
                                            for n in areas.values()))
        # a write into one load reaches neither the driver's arrays nor
        # a later load
        for got, want in zip(again, splits):
            _same(got, want)
        assert np.array_equal(shared, np.random.default_rng(seed).random(300))


class _FatReduce:
    """A callable reduce whose pickle clears the threshold (parked as rf)."""

    def __init__(self):
        self.table = np.arange(20_000, dtype=np.float64)

    def __call__(self, key, values, ctx):
        ctx.emit(key, sum(values) + self.table[0])


class TestOneSweep:
    """Every shm run ends with one sweep of its spawn ledger, completed
    or aborted: it unlinks the driver's ``f``, ``rf`` and ``s`` and every
    name a spawned attempt can have parked, and nothing else."""

    def test_the_sweep_unlinks_the_drivers_names_and_the_ledgers(self):
        registry = SegmentRegistry()
        prefix = registry.new_prefix()
        ledger = [("map", 0, 0), ("map", 0, MAX_ATTEMPTS), ("reduce", 1, 0)]
        parked = ["f", "rf", "s", "m0a0p0", "m0a0p1", "m0a4p1", "r1a0"]
        # map task 1 spawned no attempt here; a bucket of another run
        outside = [f"{prefix}m1a0p0", f"{registry.new_prefix()}m0a0p0"]
        try:
            for name in [f"{prefix}{suffix}" for suffix in parked] + outside:
                _write_segment(name, [np.arange(3)])
            # m0a4p0 was never parked: one failed probe
            assert registry.sweep(prefix, ledger, 2) == len(parked)
            assert sorted(run_segments()) == sorted(
                f"/dev/shm/{name}" for name in outside)
            assert registry.sweep(prefix, ledger, 2) == 0
        finally:
            for name in outside:
                _unlink_quietly(name)
        assert run_segments() == []

    def test_a_clean_run_sweeps_its_functions_splits_and_buckets(
            self, monkeypatch):
        """The driver parks ``f``, ``rf`` and ``s``; the map winners park
        their buckets and the reducers their outputs, which the driver
        takes.  One sweep at the end finds everything else still there,
        and leaves nothing."""
        written = _record_writes(monkeypatch)  # the driver's writes only
        swept = []
        real_sweep = SegmentRegistry.sweep

        def sweep(registry, prefix, spawned, num_reducers):
            present = sorted(path.rsplit("-", 1)[1]
                             for path in run_segments())
            reclaimed = real_sweep(registry, prefix, spawned, num_reducers)
            swept.append((present, reclaimed))
            return reclaimed

        monkeypatch.setattr(SegmentRegistry, "sweep", sweep)
        job = Job(_FatBlockMap(), _FatReduce(), conf=JobConf(num_reducers=3))
        splits = _splits()
        with MapReduceRuntime("processes", workers=2,
                              shm_min_bytes=1024) as rt:
            res = rt.run(job, splits)
            assert run_segments() == []
        assert sorted(n.rsplit("-", 1)[1] for n, _ in written) == [
            "f", "rf", "s"]
        buckets = [f"m{i}a0p{r}" for i in range(4) for r in range(3)]
        [(present, reclaimed)] = swept
        assert present == sorted(["f", "rf", "s", *buckets])
        assert reclaimed == len(present)
        with MapReduceRuntime("serial") as rt:
            assert res.output == rt.run(job, splits).output


def _groups(n=5000):
    """One reducer's grouped input: ``n`` records over 400 integer keys."""
    keys = (np.arange(n) * 7) % 400
    return group_columnar([ColumnarBlock(keys, np.arange(n) / 3.0)])


class TestGroupsRef:
    """``export_groups`` / ``ShmGroupsRef``: one reducer's grouped input
    parked in a segment, read back in place by every attempt."""

    FIELDS = ("keys", "values", "starts", "counts", "order")

    def test_small_groups_pass_through(self, name):
        groups = _groups(10)
        assert export_groups(groups, name) is groups
        assert not _exists(name)

    def test_take_round_trips_every_array(self, name):
        groups = _groups()
        ref = export_groups(groups, name, min_bytes=1024)
        assert isinstance(ref, ShmGroupsRef)
        assert ref.nbytes == sum(getattr(groups, f).nbytes
                                 for f in self.FIELDS)
        got = ref.take()
        for f in self.FIELDS:
            assert getattr(got, f).dtype == getattr(groups, f).dtype
            assert np.array_equal(getattr(got, f), getattr(groups, f))
        assert got.to_pairs() == groups.to_pairs()
        got.values[:] = -1.0  # private: the next attempt reads the bytes
        assert np.array_equal(ref.take().values, groups.values)

    def test_take_keeps_the_segment_unless_told(self, name):
        groups = _groups()
        ref = export_groups(groups, name, min_bytes=1024)
        ref.take()
        assert _exists(name)  # a retried reduce attempt re-reads it
        last = ref.take(unlink=True)
        assert not _exists(name)
        assert np.array_equal(last.values, groups.values)

    def test_string_keys_travel_with_their_dictionary(self, name):
        words = [f"w{i % 300}" for i in range(4000)]
        groups = group_columnar([ColumnarBlock(words, np.ones(4000))])
        got = export_groups(groups, name, min_bytes=1024).take()
        every = np.arange(len(groups.dictionary))
        assert len(got.dictionary) == len(groups.dictionary)
        assert got.dictionary.decode(every) == groups.dictionary.decode(every)
        assert got.to_pairs() == groups.to_pairs()
        keys, sums = got.aggregate("sum")
        assert got.dictionary.decode(keys) == sorted(set(words))
        assert set(sums.tolist()) == {13.0, 14.0}
