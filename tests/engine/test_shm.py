"""Shared-memory transport: parity, ownership, and leak-freedom.

The shm transport is an *optimisation of the wire*, not of the shuffle:
every job routed through named segments must produce output bitwise
identical to the same job through the pickle pipe, and every segment a
job creates must be gone — clean finish, task retries, or abort — by
the time ``run`` returns (plus ``close()``/``__del__`` as backstops).
"""

from __future__ import annotations

import glob
import time

import numpy as np
import pytest

from repro.engine import (
    FaultPlan,
    Job,
    JobConf,
    JobFailedError,
    MapReduceRuntime,
    NodeFaultPlan,
    ShmPickleRef,
)
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
