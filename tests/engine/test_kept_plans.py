"""Pool workers keep each task slot's shuffle plan across runs.

A process-pool worker keeps the last combine+route plan of every map
slot and the last grouping plan of every reduce slot, and reuses one
only when the slot's keys are exactly those it was built from.  These
tests pin that pooled runs stay bitwise the serial executor's, with
keys fixed across rounds (the plans are reused) and with keys that
change every round (the plans are replaced), and that the memo stays
bounded by the shape of the job a worker last ran.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.pagerank import PageRankKVSpec
from repro.apps.sssp import SsspKVSpec
from repro.core import DriverConfig, EngineBackend, IterationLoop
from repro.engine import Job, JobConf, MapReduceRuntime, task
from repro.graph import (
    attach_random_weights,
    multilevel_partition,
    preferential_attachment,
)

DAMPING = 0.85
SWEEPS = 6


class SweepMap:
    """The engine-sweep-proc benchmark's map: one block of damped rank
    contributions along the part's edges, one of teleport mass."""

    def __init__(self, layout: list) -> None:
        self.layout = layout

    def __call__(self, part_id, ranks, ctx) -> None:
        src, dst, dinv, nodes = self.layout[part_id]
        ctx.emit_block(dst, ranks[src] * dinv)
        ctx.emit_block(nodes, np.full(len(nodes), 1.0 - DAMPING))


def _sweep_layout(seed: int, *, nodes: int, parts: int,
                  edges_per_node: int = 4) -> list:
    """Hub-skewed random edges, cut into contiguous per-part source
    chunks (the benchmark's input shape, smaller)."""
    rng = np.random.default_rng(seed)
    m = nodes * edges_per_node
    src = rng.integers(0, nodes, m)
    dst = (nodes * rng.random(m) ** 2.0).astype(np.int64)
    outdeg = np.bincount(src, minlength=nodes)
    damped = DAMPING / np.maximum(outdeg, 1)
    bounds = np.linspace(0, nodes, parts + 1).astype(np.int64)
    layout = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mask = (src >= lo) & (src < hi)
        layout.append((src[mask], dst[mask], damped[src[mask]],
                       np.arange(lo, hi, dtype=np.int64)))
    return layout


def _sweep_job(layout: list, reducers: int) -> Job:
    return Job(map_fn=SweepMap(layout), reduce_fn="sum", combine_fn="sum",
               conf=JobConf(num_reducers=reducers, columnar=True,
                            name="sweep"))


def _sweeps(runtime: MapReduceRuntime, job: Job, nodes: int,
            sweeps: int = SWEEPS) -> "list[np.ndarray]":
    """Rank vector after each sweep (the benchmark's state rebuild)."""
    maps = len(job.map_fn.layout)
    ranks = np.ones(nodes)
    out = []
    for _ in range(sweeps):
        res = runtime.run(job, [[(p, ranks)] for p in range(maps)])
        block = res.columnar_output
        ranks = np.zeros(nodes)
        ranks[block.keys] = block.values
        out.append(ranks)
    return out


def _kept(rt: MapReduceRuntime) -> int:
    """Plans the (single) pool worker keeps."""
    return rt.pool.submit(task.kept_plans).result()


@pytest.fixture(scope="module")
def graph():
    return preferential_attachment(1500, num_conn=3, locality_prob=0.9,
                                   community_mean=40, seed=5)


@pytest.fixture(scope="module")
def partition(graph):
    return multilevel_partition(graph, 4, seed=0)


class TestPooledRunsAreBitwiseSerial:
    def test_all_six_sweeps(self):
        nodes = 20_000
        job = _sweep_job(_sweep_layout(3, nodes=nodes, parts=4), 2)
        with MapReduceRuntime("serial") as rt:
            want = _sweeps(rt, job, nodes)
        with MapReduceRuntime("processes", workers=2) as rt:
            got = _sweeps(rt, job, nodes)
            assert max(rt.pool.submit(task.kept_plans).result()
                       for _ in range(4)) > 0
        for g, w in zip(got, want, strict=True):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("app", ["sssp", "pagerank"])
    def test_kv_spec_to_convergence(self, app, graph, partition):
        # SSSP's frontier changes the keys every round (plans replaced);
        # PageRank's keys are fixed (plans reused)
        def run(runtime):
            if app == "sssp":
                wg = attach_random_weights(graph, seed=2)
                spec = SsspKVSpec(wg, multilevel_partition(wg, 4, seed=0))
            else:
                spec = PageRankKVSpec(graph, partition)
            backend = EngineBackend(spec, runtime=runtime, columnar=True)
            return IterationLoop(backend, DriverConfig(mode="eager")).run()

        with MapReduceRuntime("serial") as rt:
            want = run(rt)
        with MapReduceRuntime("processes", workers=2) as rt:
            got = run(rt)
        assert want.converged and got.converged
        assert got.global_iters == want.global_iters
        assert got.state.tobytes() == want.state.tobytes()
        assert got.history == want.history


class TestBound:
    def test_a_worker_keeps_at_most_one_plan_per_slot(self):
        nodes = 4000
        four_by_two = _sweep_job(_sweep_layout(1, nodes=nodes, parts=4), 2)
        with MapReduceRuntime("processes", workers=1) as rt:
            _sweeps(rt, four_by_two, nodes, sweeps=2)
            assert _kept(rt) == 4 + 2
            # other keys in the same slots replace the plans in place
            other = _sweep_job(_sweep_layout(2, nodes=nodes, parts=4), 2)
            _sweeps(rt, other, nodes, sweeps=1)
            assert _kept(rt) == 4 + 2
            # every slot of a 3x1 job is a slot of the 4x2 job: only
            # emptying the memo on the new shape brings the count down
            three_by_one = _sweep_job(_sweep_layout(1, nodes=nodes, parts=3),
                                      1)
            _sweeps(rt, three_by_one, nodes, sweeps=2)
            assert _kept(rt) == 3 + 1
            _sweeps(rt, four_by_two, nodes, sweeps=1)
            assert _kept(rt) == 4 + 2

    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_the_driver_keeps_none(self, executor):
        nodes = 4000
        job = _sweep_job(_sweep_layout(1, nodes=nodes, parts=4), 2)
        with MapReduceRuntime(executor, workers=2) as rt:
            _sweeps(rt, job, nodes, sweeps=2)
        assert task.kept_plans() == 0
