"""Benchmark — multi-job scheduling policies on one shared cluster.

Not a paper figure: this exercises the Session API
(:mod:`repro.core.session`), which multiplexes several iterative jobs
onto ONE shared simulated cluster — the regime real clusters live in,
and the one the paper's whole-cluster-per-job evaluation leaves open.

Workload: a *long* job submitted first (PageRank in the general mode —
one local step per round, many global rounds) followed by two short
eager jobs (K-Means and SSSP).  This is the classic convoy scenario:

* **FIFO** (Hadoop's default) runs the long job to completion first, so
  both short jobs pay its entire makespan as queue wait.
* **Round-robin** time-slices rounds, letting short jobs finish without
  waiting for the long one.
* **Fair-share** (the Hadoop Fair Scheduler discipline) runs every
  pending job concurrently on an equal slot share; short jobs overlap
  the long job's rounds instead of queueing behind them.

Expected: fair-share (and round-robin) cut *mean job latency* well
below FIFO; per-job iterates, round counts and residual histories are
identical across policies (scheduling shares the clock, not the math).
Every policy's answers are checked against the apps' references, and
``answer_ok`` per policy lands in ``BENCH_multi_job.json``.
"""

from __future__ import annotations

import os

import numpy as np

from conftest import record
from repro.apps import (
    kmeans_reference,
    kmeans_spec,
    pagerank_reference,
    pagerank_spec,
    sse,
    sssp_reference,
    sssp_spec,
)
from repro.bench import (
    KMEANS_SSE_RATIO,
    get_graph,
    get_partition,
    graph_scale,
    make_cluster,
)
from repro.core import Session
from repro.data import census_sample
from repro.util import ascii_table

#: BENCH_QUICK env var shrinks the run for CI smoke jobs.
_QUICK = bool(os.environ.get("BENCH_QUICK"))


def _inputs():
    """``(k, graph, partition, weighted twin, its partition, points)``."""
    scale = graph_scale()
    k = max(2, int(round((40 if _QUICK else 100) * scale)))
    return (k, get_graph("A", scale), get_partition("A", scale, k),
            get_graph("A", scale, weighted=True),
            get_partition("A", scale, k, weighted=True),
            census_sample(1_000 if _QUICK else 5_000, seed=0))


def _submit_mix(session: Session):
    """The convoy mix: long general PageRank first, short eager jobs after."""
    k, g, part, gw, partw, pts = _inputs()
    return [
        session.submit(pagerank_spec(g, part, mode="general",
                                     name="pagerank-general")),
        session.submit(kmeans_spec(pts, 8, mode="eager", num_partitions=k,
                                   seed=0, name="kmeans-eager")),
        session.submit(sssp_spec(gw, partw, mode="eager", name="sssp-eager")),
    ]


def _run_policy(policy: str):
    with Session(cluster=make_cluster(), policy=policy) as session:
        handles = _submit_mix(session)
        session.run()
        return {
            "policy": policy,
            "handles": handles,
            "makespan": session.makespan(),
            "mean_latency": session.mean_latency(),
        }


def test_multi_job_fifo_vs_fair(once):
    runs = once(lambda: [_run_policy(p) for p in ("fifo", "rr", "fair")])
    by_policy = {r["policy"]: r for r in runs}

    rows = []
    for r in runs:
        for h in r["handles"]:
            rows.append([r["policy"], h.name, h.rounds,
                         f"{h.queue_wait:,.0f}", f"{h.busy_seconds:,.0f}",
                         f"{h.makespan:,.0f}"])
        rows.append([r["policy"], "== session ==", "",
                     "", f"mean {r['mean_latency']:,.0f}",
                     f"{r['makespan']:,.0f}"])
    print()
    print(ascii_table(
        ["policy", "job", "rounds", "queue wait (s)", "busy (s)",
         "makespan (s)"],
        rows, title="Multi-job scheduling on one shared cluster"))

    fifo, fair = by_policy["fifo"], by_policy["fair"]
    # every job converges under every policy
    for r in runs:
        assert all(h.result.converged for h in r["handles"])
    # scheduling changes timestamps, not math: identical per-job
    # iterates, round counts, and residual histories across policies
    for other in (by_policy["rr"], fair):
        for h_f, h_o in zip(fifo["handles"], other["handles"]):
            assert h_f.rounds == h_o.rounds
            assert np.allclose(np.asarray(h_f.result.state),
                               np.asarray(h_o.result.state))
            assert ([r.residual for r in h_f.result.history]
                    == [r.residual for r in h_o.result.history])
    # the headline: fair-share beats FIFO on mean job latency (short
    # jobs overlap the convoy instead of queueing behind it)
    assert fair["mean_latency"] < fifo["mean_latency"]
    # FIFO's short jobs pay the long job's makespan as queue wait;
    # fair-share's pay none
    assert fifo["handles"][1].queue_wait > 0
    assert fair["handles"][1].queue_wait == 0

    # Answers, not only latencies: PageRank within 2x of a solo run's
    # distance to the true fixed point (1e-13), SSSP equal to Dijkstra,
    # k-means' SSE within KMEANS_SSE_RATIO of serial Lloyd's.
    k, g, part, gw, _, pts = _inputs()
    ranks = pagerank_reference(g, tol=1e-13)
    solo = np.abs(pagerank_spec(g, part, mode="general").run().state
                  - ranks).max()
    dist = sssp_reference(gw)
    lloyd = sse(pts, kmeans_reference(pts, 8, seed=0))
    answers = {}
    for r in runs:
        pr, km, sp = (np.asarray(h.result.state) for h in r["handles"])
        error, ratio = np.abs(pr - ranks).max(), sse(pts, km) / lloyd
        print(f"{r['policy']}: PageRank error {error:.3g} (solo {solo:.3g}), "
              f"SSSP exact {np.array_equal(sp, dist)}, k-means SSE ratio "
              f"{ratio:.6f}")
        answers[f"{r['policy']}_answer_ok"] = float(
            error <= 2 * solo and np.array_equal(sp, dist)
            and ratio <= KMEANS_SSE_RATIO)
    record("BENCH_multi_job.json", "answers", answers)
    assert all(ok == 1.0 for ok in answers.values()), answers
