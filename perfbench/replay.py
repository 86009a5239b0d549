"""Staged replay: one captured engine round, re-executed stage by stage.

The live runtime overlaps its stages (buckets are merged while other
map tasks still run) and hides them inside ``run``; from outside only
the total is visible.  Here the *same* round — the job and splits the
runtime stand-in captured — is pushed through the engine's public
functions one stage at a time with a clock around each, and the result
must be bitwise the live round's output or the replay is void.

Stage times are therefore *serial, uncontended* costs of each stage on
this round's real data: an attribution of where the work is, not a
decomposition of the live wall time (the live round's remainder is
``engine.runtime.wait_ms``).
"""

from __future__ import annotations

import pickle
import time
from typing import Any

import numpy as np

from repro.engine import (
    ColumnarBlock,
    FaultPlan,
    ShmPickleRef,
    ShuffleBuffer,
    TaskContext,
    group_columnar,
    route_combine_columnar,
    run_map_task,
    run_reduce_task,
)
from repro.engine.shm import SHM_MIN_BYTES, export_block, export_groups

from perfbench.probes import shm_prefix

__all__ = ["STAGES", "staged_replay", "submit_bytes"]

#: Stage names (each maps to the per-layer metric ``<stage>_ms``).
STAGES = (
    "engine.task.map_task",
    "engine.columnar.route_combine",
    "engine.shm.export_take",
    "engine.shuffle.add",
    "engine.shuffle.seal",
    "engine.columnar.group",
    "engine.task.reduce_task",
    "engine.columnar.concat",
)


class _Clock:
    """Accumulates wall seconds per stage name, and per side: which
    process runs the stage in a live pooled round."""

    def __init__(self) -> None:
        self.seconds = {stage: 0.0 for stage in STAGES}
        self.side = {"driver": 0.0, "worker": 0.0, "probe": 0.0}

    def time(self, side: str, stage: str, fn: Any, *args: Any, **kwargs: Any) -> Any:
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        self.seconds[stage] += dt
        self.side[side] += dt
        return out


def _through_shm(clock: _Clock, exporter: str, export: Any, payload: Any,
                 name: str, stats: dict) -> Any:
    """Park ``payload`` in a segment (on the ``exporter`` side) and take
    it back on the other side, consume-once."""
    taker = "driver" if exporter == "worker" else "worker"
    ref = clock.time(exporter, "engine.shm.export_take", export, payload, name,
                     SHM_MIN_BYTES)
    if ref is payload:          # below the threshold: stays on the pickle path
        return payload
    stats["segments"] += 1
    stats["bytes"] += ref.nbytes
    return clock.time(taker, "engine.shm.export_take", ref.take, unlink=True)


def staged_replay(job: Any, splits: Any, live: Any, *, shm: bool) -> dict:
    """Re-execute one round; returns stage seconds and shm counts.

    ``shm`` replays the process executor's transport (every
    above-threshold block makes a segment round trip); without it the
    blocks are handed over in memory as the serial executor does.
    The returned dict has ``seconds`` (per stage), ``driver_seconds``
    and ``worker_seconds`` (the stages each side of a pooled round
    executes; stand-alone probes of a sub-stage count for neither),
    ``segments``, ``bytes`` and ``bitwise`` (replayed output == live
    output).
    """
    conf = job.conf
    clock = _Clock()
    stats = {"segments": 0, "bytes": 0}
    prefix = f"{shm_prefix()}replay-"
    reducers = conf.num_reducers

    # Map tasks, whole (map body + concat + route/combine + measure).
    map_results = [
        clock.time("worker", "engine.task.map_task", run_map_task, i, 0, list(split),
                   job.map_fn, job.combine_fn, job.partitioner, reducers, None,
                   conf.columnar, conf.combine_crossover)
        for i, split in enumerate(splits)]
    columnar = isinstance(map_results[0].data[0], ColumnarBlock)

    # The map-side concat and the fused route+combine alone, per task.
    if columnar and isinstance(job.combine_fn, str):
        for i, split in enumerate(splits):
            ctx = TaskContext(f"m{i}", 0)
            for key, value in split:
                job.map_fn(key, value, ctx)
            block = clock.time("probe", "engine.columnar.concat", ColumnarBlock.concat,
                               ctx.columnar_output)
            clock.time("probe", "engine.columnar.route_combine", route_combine_columnar,
                       block, reducers, job.combine_fn, job.partitioner)

    # Shuffle: transport, merge, seal.
    buffer = ShuffleBuffer(len(splits), reducers, sort_keys=conf.sort_keys)
    for i, res in enumerate(map_results):
        buckets = res.data
        if shm and columnar:
            buckets = [_through_shm(clock, "worker", export_block, b, f"{prefix}m{i}p{r}",
                                    stats)
                       for r, b in enumerate(buckets)]
        clock.time("driver", "engine.shuffle.add", buffer.add, i, buckets)
    if columnar:
        per_reducer = [[res.data[r] for res in map_results if len(res.data[r])]
                       for r in range(reducers)]
        for blocks in per_reducer:
            clock.time("probe", "engine.columnar.group", group_columnar, blocks,
                       sort_keys=conf.sort_keys)
        grouped = clock.time("driver", "engine.shuffle.seal", buffer.columnar_groups)
        if shm:
            grouped = [_through_shm(clock, "driver", export_groups, g, f"{prefix}g{r}", stats)
                       for r, g in enumerate(grouped)]
    else:
        grouped = clock.time("driver", "engine.shuffle.seal", buffer.groups)

    # Reduce tasks, output transport, driver-side concat.
    reduce_results = [
        clock.time("worker", "engine.task.reduce_task", run_reduce_task, r, 0, grouped[r],
                   job.reduce_fn, None, True)
        for r in range(reducers)]
    if columnar:
        blocks = [res.data for res in reduce_results]
        if shm:
            blocks = [_through_shm(clock, "worker", export_block, b, f"{prefix}r{r}", stats)
                      for r, b in enumerate(blocks)]
        out = clock.time("driver", "engine.columnar.concat", ColumnarBlock.concat, blocks)
        want = live.columnar_output
        bitwise = (want is not None and np.array_equal(out.keys, want.keys)
                   and np.array_equal(out.values, want.values))
    else:
        pairs = [pair for res in reduce_results for pair in res.data]
        bitwise = pairs == live.output
    return {"seconds": clock.seconds, "driver_seconds": clock.side["driver"],
            "worker_seconds": clock.side["worker"], "bitwise": bool(bitwise),
            **stats}


def submit_bytes(job: Any, splits: Any) -> int:
    """Pickled bytes of one pooled round's map-task submissions (computed).

    Mirrors the argument tuple the runtime hands the process pool per
    map task under the shm transport: the job function travels as a
    small :class:`~repro.engine.ShmPickleRef` when its pickle is fat
    enough to be parked, so the split and a few scalars are what ships.
    """
    conf = job.conf
    map_fn = job.map_fn
    size = len(pickle.dumps(map_fn, protocol=pickle.HIGHEST_PROTOCOL))
    if size >= SHM_MIN_BYTES:
        map_fn = ShmPickleRef(f"{shm_prefix()}0-f", [((size,), "|u1", 0)], size)
    return sum(
        len(pickle.dumps(
            (i, 0, list(split), map_fn, job.combine_fn, job.partitioner,
             conf.num_reducers, FaultPlan.none(), conf.columnar,
             conf.combine_crossover, SHM_MIN_BYTES, f"{shm_prefix()}0-"),
            protocol=pickle.HIGHEST_PROTOCOL))
        for i, split in enumerate(splits))
