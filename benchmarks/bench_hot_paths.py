"""Benchmark — columnar shuffle fast path vs the object path.

Not a paper figure: this measures the *engine's own* per-record
interpreter tax, the overhead ISSUE 5 targets.  The workload is an
iterative PageRank sweep whose per-partition contribution math is
vectorised identically in both variants — so the measured difference is
purely the engine path: per-pair emission, per-key hash routing,
dict-of-lists grouping, per-object byte estimation and a per-key Python
reduce on the object path, versus one ``emit_block`` per task, a fused
route+combine, sort-based grouping, dtype-math byte accounting and a
segmented array reduce on the columnar path.

The graph's in-degrees are power-law (web-crawl shaped): a handful of
hub pages receive most links, so each map task's buckets carry many
duplicate destination keys and the map-side combiner (§V-B's partial
aggregation) genuinely collapses the shuffle.  The CI gate pins what
combining guarantees, deterministically: one sweep with the combiner
shuffles at most 70 % of the bytes it shuffles without.  On the serial
executor, which moves no bytes, combining does not pay in wall-clock
time (5-20 % slower on a 2-vCPU box), so both wall times are recorded
and neither is gated against the other.  (A uniform-destination
workload averages ~0.5 records per key per bucket; combining there is
pure sort overhead.)

Executor columns: the same columnar+combine sweep through the thread
pool and the process pool (warmed, excluded from timing).  The process
executor ships every above-threshold block as a named
``multiprocessing.shared_memory`` segment instead of pickling arrays
through the result pipe; the gate holds it within 2x of threads plus a
small absolute grace for per-task dispatch at quick scale.

Grouped output is pinned byte-identical between the paths (the columnar
shuffle is an optimisation, not a different shuffle), and the CI gate
fails if the columnar path is ever *slower* than the object path.  At
full scale (``REPRO_SCALE`` >= 1) the headline assertion is the ISSUE's
acceptance bar: columnar+combiner at least 3x faster end to end.

Every path's final ranks are also checked against a plain-NumPy oracle
of the same ``ITERS`` sweeps (``np.add.at`` over the edge arrays, no
engine), and ``<path>_answer_ok`` records that each agreed.

Results land in ``BENCH_hot_paths.json`` (uploaded by the bench-smoke
CI job) so the engine-path perf trajectory is comparable across PRs.
"""

from __future__ import annotations

import os
import time

import numpy as np

from conftest import record
from repro.engine import (
    ColumnarBlock,
    HashPartitioner,
    Job,
    JobConf,
    MapReduceRuntime,
    route_combine_columnar,
    run_map_task,
    shuffle,
)
from repro.engine.counters import SHUFFLE_BYTES
from repro.util import ascii_table

_QUICK = bool(os.environ.get("BENCH_QUICK"))


def _scale() -> float:
    s = os.environ.get("REPRO_SCALE", "")
    if s in ("", "full"):
        return 1.0
    return float(s)


SCALE = _scale()
#: Nodes / edges of the synthetic web graph (PageRank-shaped traffic).
NODES = max(2_000, int(30_000 * SCALE))
EDGES_PER_NODE = 4
PARTS = 8
REDUCERS = 8
ITERS = 3 if _QUICK else 6
REPEATS = 1 if _QUICK else 2
DAMPING = 0.85
#: Power-law exponent shaping in-degrees (larger -> heavier hubs).
HUB_SKEW = 3.0


def _workload(seed: int = 0):
    """Per-partition edge arrays: (src, dst, damped inv-outdegree, nodes).

    Node ids are contiguous chunks per partition (crawl-order locality);
    sources are uniform but destinations follow a power law
    (``floor(NODES * u**HUB_SKEW)``), so hub nodes collect many inbound
    edges and each map bucket carries real key duplication — the
    workload where map-side combining pays.
    """
    rng = np.random.default_rng(seed)
    src = rng.integers(0, NODES, NODES * EDGES_PER_NODE)
    dst = (NODES * rng.random(NODES * EDGES_PER_NODE) ** HUB_SKEW).astype(
        np.int64)
    outdeg = np.bincount(src, minlength=NODES).astype(np.float64)
    inv_out = np.where(outdeg > 0, 1.0 / np.maximum(outdeg, 1), 0.0)
    bounds = np.linspace(0, NODES, PARTS + 1).astype(np.int64)
    layout = []
    for p in range(PARTS):
        lo, hi = bounds[p], bounds[p + 1]
        mask = (src >= lo) & (src < hi)
        layout.append((src[mask], dst[mask],
                       DAMPING * inv_out[src[mask]],
                       np.arange(lo, hi, dtype=np.int64)))
    return layout


class _ObjectMap:
    """Today's engine idiom: one ctx.emit per intermediate record."""

    def __init__(self, layout) -> None:
        self.layout = layout

    def __call__(self, part_id, ranks, ctx) -> None:
        src, dst, dinv, nodes = self.layout[part_id]
        contrib = ranks[src] * dinv          # identical vectorised compute
        for k, v in zip(dst.tolist(), contrib.tolist()):
            ctx.emit(k, v)
        base = 1.0 - DAMPING
        for k in nodes.tolist():
            ctx.emit(k, base)


class _ColumnarMap:
    """The fast path: the same records as two typed batches."""

    def __init__(self, layout) -> None:
        self.layout = layout

    def __call__(self, part_id, ranks, ctx) -> None:
        src, dst, dinv, nodes = self.layout[part_id]
        contrib = ranks[src] * dinv          # identical vectorised compute
        ctx.emit_block(dst, contrib)
        ctx.emit_block(nodes, np.full(len(nodes), 1.0 - DAMPING))


def _oracle_ranks(layout) -> np.ndarray:
    """The ranks after ``ITERS`` synchronous sweeps, in plain NumPy:
    each node's ``1 - DAMPING`` plus its damped in-edge contributions."""
    ranks = np.ones(NODES, dtype=np.float64)
    for _ in range(ITERS):
        new = np.zeros(NODES, dtype=np.float64)
        for src, dst, dinv, nodes in layout:
            np.add.at(new, dst, ranks[src] * dinv)
            new[nodes] += 1.0 - DAMPING
        ranks = new
    return ranks


def _run_variant(layout, *, columnar: bool, combine: bool,
                 executor: str = "serial"
                 ) -> "tuple[float, np.ndarray, int]":
    """Time ITERS synchronous PageRank sweeps through the engine; also
    returns one sweep's ``SHUFFLE_BYTES``.

    Pool executors get one untimed warm-up run first — worker start-up
    is a fixed cost the iterative runtimes pay once per session, not
    per round.
    """
    map_fn = (_ColumnarMap if columnar else _ObjectMap)(layout)
    job = Job(map_fn=map_fn, reduce_fn="sum",
              combine_fn="sum" if combine else None,
              conf=JobConf(num_reducers=REDUCERS, columnar=columnar))
    ranks = np.ones(NODES, dtype=np.float64)
    with MapReduceRuntime(executor) as rt:
        if executor != "serial":
            rt.run(job, [[(p, ranks)] for p in range(PARTS)])  # warm pool
        t0 = time.perf_counter()
        for _ in range(ITERS):
            res = rt.run(job, [[(p, ranks)] for p in range(PARTS)])
            new = np.zeros(NODES, dtype=np.float64)
            if res.columnar_output is not None:
                out = res.columnar_output
                new[out.keys] = out.values
            else:
                ks, vs = zip(*res.output)
                new[np.fromiter(ks, np.int64, len(ks))] = np.fromiter(
                    vs, np.float64, len(vs))
            ranks = new
        dt = time.perf_counter() - t0
    return dt, ranks, res.counters.get(SHUFFLE_BYTES)


def _pin_grouped_output_identical(layout) -> None:
    """The acceptance pin: columnar groups byte-identical to the object
    path, with the combiner both off and on."""
    ranks = np.ones(NODES, dtype=np.float64)
    for combine in (None, "sum"):
        per_path = []
        for columnar in (True, False):
            cls = _ColumnarMap if columnar else _ObjectMap
            results = [
                run_map_task(p, 0, [(p, ranks)], cls(layout), combine,
                             HashPartitioner(), REDUCERS, None, columnar)
                for p in range(2)  # two partitions exercise the merge
            ]
            per_path.append(shuffle([r.data for r in results], REDUCERS))
        assert per_path[0] == per_path[1], (
            f"columnar groups diverged from object path (combine={combine})")


def test_columnar_fast_path(once):
    layout = _workload()
    _pin_grouped_output_identical(layout)

    variants = [
        ("object", False, False, "serial"),
        ("object+combine", False, True, "serial"),
        ("columnar", True, False, "serial"),
        ("columnar+combine", True, True, "serial"),
        ("columnar+combine/threads", True, True, "threads"),
        ("columnar+combine/process", True, True, "processes"),
    ]

    def run():
        times = {name: float("inf") for name, *_ in variants}
        ranks, shuffled = {}, {}
        for _ in range(REPEATS):
            for name, columnar, combine, executor in variants:
                dt, r, nbytes = _run_variant(layout, columnar=columnar,
                                             combine=combine, executor=executor)
                times[name] = min(times[name], dt)
                ranks[name], shuffled[name] = r, nbytes
        return times, ranks, shuffled

    times, ranks, shuffled = once(run)

    # Same iterates on every path (the shuffle is an execution detail).
    for name, *_ in variants[1:]:
        assert np.allclose(ranks[name], ranks["object"], rtol=1e-9), name
    # ... and they are the sweeps' answer: the engine sums a node's
    # contributions in its own order, so equal to rounding, not bits.
    oracle = _oracle_ranks(layout)
    answer_ok = {name: bool(np.allclose(ranks[name], oracle, rtol=1e-9, atol=0.0))
                 for name, *_ in variants}

    speedup = {name: times["object"] / max(times[name], 1e-12)
               for name, *_ in variants}
    rows = [[name, f"{times[name]:.3f}", f"{speedup[name]:.2f}x"]
            for name, *_ in variants]
    print()
    print(ascii_table(
        ["engine path", "wall time (s)", "speedup vs object"], rows,
        title=f"Shuffle hot paths: iterative PageRank sweep, "
              f"{NODES:,} nodes x {ITERS} iters, {PARTS} maps -> "
              f"{REDUCERS} reducers"))

    record("BENCH_hot_paths.json", "pagerank_sweep", {
        **{name: times[name] for name, *_ in variants},
        "speedup_columnar": speedup["columnar"],
        "speedup_columnar_combine": speedup["columnar+combine"],
        "process_over_threads": (times["columnar+combine/process"]
                                 / max(times["columnar+combine/threads"],
                                       1e-12)),
        **{f"{name}_answer_ok": float(ok) for name, ok in answer_ok.items()},
    })
    assert all(answer_ok.values()), f"ranks differ from the oracle: {answer_ok}"

    # CI gate: the fast path must never lose to the object path.
    assert times["columnar"] <= times["object"], (
        f"columnar slower than object: {times}")
    assert times["columnar+combine"] <= times["object"], (
        f"columnar+combine slower than object: {times}")
    # CI gate: on a duplicated-key workload the combiner must collapse
    # the shuffle — a byte count, the same on every run and every box.
    assert shuffled["columnar+combine"] <= 0.7 * shuffled["columnar"], (
        f"combine kept too many shuffle bytes: {shuffled}")
    # CI gate: the shm transport keeps the process executor in the same
    # league as threads.  The absolute grace term covers fixed per-task
    # pipe dispatch (submission pickling, future plumbing), which
    # dominates at quick scale and still jitters a few tens of ms at
    # full scale on single-core boxes.
    grace = 0.5 if _QUICK else 0.1
    assert (times["columnar+combine/process"]
            <= 2.0 * times["columnar+combine/threads"] + grace), (
        f"process executor more than 2x threads: {times}")
    # Headline acceptance bar at full scale: >= 3x end to end.
    if SCALE >= 1.0 and not _QUICK:
        assert speedup["columnar+combine"] >= 3.0, (
            f"expected >=3x, got {speedup['columnar+combine']:.2f}x")


#: Kernel-row input: fixed here, deliberately NOT scaled by
#: ``REPRO_SCALE`` / ``BENCH_QUICK`` — the gate compares two sort regimes
#: at a size where the sort dominates, and a scaled-down block would
#: measure fixed per-call overhead instead.
KERNEL_RECORDS = 300_000
KERNEL_SPAN = 60_000
KERNEL_REPEATS = 7


def test_grouping_kernel_has_no_span_cliff(once):
    """One power-law key block routed+combined twice: as is (span
    60,000 — one 16-bit radix pass) and with every key multiplied by 4
    (span ~2**18 — the kernel's wide-span path).  The duplication
    structure is identical, so only the record sort differs; the gate
    keeps the wide block within 1.6x of the narrow one.  (The int64
    ``argsort(kind="stable")`` merge sort that the kernel replaced
    measured 3.1x here.)"""
    rng = np.random.default_rng(0)
    keys = (KERNEL_SPAN * rng.random(KERNEL_RECORDS) ** HUB_SKEW).astype(
        np.int64)
    values = rng.random(KERNEL_RECORDS)
    blocks = {"narrow": ColumnarBlock(keys, values),
              "wide": ColumnarBlock(keys * 4, values)}

    def run():
        # Interleaved, so machine drift lands on both medians alike.
        samples = {name: [] for name in blocks}
        for _ in range(KERNEL_REPEATS):
            for name, block in blocks.items():
                t0 = time.perf_counter()
                route_combine_columnar(block, REDUCERS, "sum")
                samples[name].append(time.perf_counter() - t0)
        return {name: float(np.median(ts)) for name, ts in samples.items()}

    times = once(run)
    ratio = times["wide"] / max(times["narrow"], 1e-12)

    print()
    print(ascii_table(
        ["key span", "route+combine (ms)"],
        [[name, f"{1e3 * times[name]:.1f}"] for name in blocks],
        title=f"Grouping kernel: {KERNEL_RECORDS:,} power-law records -> "
              f"{REDUCERS} reducers, median of {KERNEL_REPEATS}; "
              f"wide/narrow = {ratio:.2f}x"))
    record("BENCH_hot_paths.json", "grouping_kernel", {
        "narrow": times["narrow"], "wide": times["wide"],
        "wide_over_narrow": ratio,
    })
    assert ratio <= 1.6, (
        f"wide keys {ratio:.2f}x narrow: the sort fell off the kernel's "
        f"fast paths ({times})")
