#!/usr/bin/env python
"""Tour of the §VIII future-work extensions, implemented.

The paper closes with three proposals; this example runs all three on
one PageRank workload:

1. **Hierarchy of synchronizations** — rack-level sync rounds between
   the node-local and global levels.
2. **Optimal granularity for maps** — automatic partition-count
   selection by probing (sampling-based, per the paper's citation [5]).
3. **System-level enhancements** — a Bigtable-like online store for the
   inter-iteration state instead of the DFS, with the fault-tolerance
   caveat handled by periodic checkpoints.

Plus one enhancement of our own runtime rather than the paper's design:

4. **Columnar shuffle fast path** — a custom engine job that ships
   typed ``(int64, float64)`` batches with a map-side combiner instead
   of one Python object per record, and how an iterative spec opts in.
5. **Columnar end to end** — string keys ride the fast path through
   dictionary encoding, and the process executor ships blocks as named
   shared-memory segments instead of pickles — pinned bitwise-identical
   to the in-process run.
6. **Barrier to chaos** — the ``AsyncBackend`` walks the paper's whole
   synchronization axis on one workload: ``staleness=0`` is the
   barrier, a finite bound is stale-synchronous coupling, ``None`` is
   pure chaotic relaxation, and a ``DivergenceDetector`` rescues a
   Jacobi system that contracts synchronously but oscillates without
   a barrier (the Chazan–Miranker gap).

Run:  python examples/extensions_tour.py
"""

from __future__ import annotations

import glob
import os

import numpy as np

from repro.apps.pagerank import PageRankBlockSpec, PageRankKVSpec
from repro.cluster import DFSStateStore, OnlineStateStore, SimCluster
from repro.core import (
    AsyncBackend,
    BlockBackend,
    DivergenceDetector,
    DriverConfig,
    EngineBackend,
    HierarchicalBackend,
    Session,
    autotune_partitions,
    make_racks,
)
from repro.engine import Job, JobConf, MapReduceRuntime
from repro.graph import make_paper_graph, multilevel_partition
from repro.util import ascii_table


def word_batch_map(part_id, text, ctx):
    """One typed batch of *string* keys: ``emit_block`` interns the
    words through a StringDictionary, so routing/combining/grouping run
    over int64 codes while the output still carries the words.
    (Module-level: the process executor pickles map functions.)"""
    words = np.array(text.split(), dtype=object)
    ctx.emit_block(words, np.ones(len(words)))


def main() -> None:
    graph = make_paper_graph("A", scale=0.01, seed=0)
    print(f"Graph A (scaled): {graph.num_nodes} nodes, {graph.num_edges} edges\n")

    # ------------------------------------------------------------------
    # 1. Autotune the map granularity (§VIII "Optimal granularity").
    # ------------------------------------------------------------------
    def factory(k: int) -> PageRankBlockSpec:
        return PageRankBlockSpec(graph, multilevel_partition(graph, k, seed=0))

    report = autotune_partitions(factory, [2, 4, 8, 16, 32], probe_iters=3)
    rows = [[p.k, f"{p.seconds_per_round:.1f}", f"{p.contraction:.2f}",
             f"{p.predicted_seconds:,.0f}"] for p in report.ranking()]
    print(ascii_table(["k", "s/round (probe)", "contraction", "predicted total (s)"],
                      rows, title=f"1. Granularity autotuner -> best k = {report.best_k} "
                      f"(probe cost {report.probe_seconds:,.0f} s)"))

    k = report.best_k
    partition = multilevel_partition(graph, k, seed=0)

    # ------------------------------------------------------------------
    # 2. Flat eager vs hierarchical (rack-level) synchronization.
    # ------------------------------------------------------------------
    def run_single(backend, cfg):
        """One job through a throwaway session (its own fresh cluster)."""
        with Session(cluster=SimCluster()) as session:
            handle = session.submit(backend, cfg)
            session.run()
        return handle.result

    flat = run_single(BlockBackend(PageRankBlockSpec(graph, partition)),
                      DriverConfig(mode="eager"))
    racks = make_racks(k, max(2, k // 4))
    hier = run_single(
        HierarchicalBackend(PageRankBlockSpec(graph, partition), racks,
                            inner_rounds=3),
        DriverConfig(mode="eager"))
    print()
    print(ascii_table(
        ["scheme", "global iters", "sim time (s)"],
        [["flat eager (2 levels)", flat.global_iters, f"{flat.sim_time:,.0f}"],
         [f"hierarchical ({len(racks)} racks, 3 inner rounds)",
          hier.global_iters, f"{hier.sim_time:,.0f}"]],
        title="2. Hierarchy of synchronizations"))

    # ------------------------------------------------------------------
    # 3. DFS vs online state store between iterations.  StateStores are
    # constructed directly: the online store is tablet-sharded (round
    # time = its hottest tablet), and ``checkpoint_every`` buys back
    # the fault tolerance the paper says "must be resolved".
    # ------------------------------------------------------------------
    rows = []
    for name, store, ckpt in (
            ("DFS (baseline)", DFSStateStore(), None),
            ("online store (8 tablets)", OnlineStateStore(num_tablets=8),
             None),
            ("online + checkpoints", OnlineStateStore(num_tablets=8), 5)):
        cfg = DriverConfig(mode="eager", state_store=store,
                           checkpoint_every=ckpt)
        res = run_single(BlockBackend(PageRankBlockSpec(graph, partition)),
                         cfg)
        rows.append([name, f"{res.sim_time:,.0f}"])
    print()
    print(ascii_table(["state store", "sim time (s)"], rows,
                      title="3. Inter-iteration state store"))

    # ------------------------------------------------------------------
    # 4. Columnar shuffle fast path + map-side combiner.
    #
    # A custom engine job opts in simply by emitting typed batches
    # (``ctx.emit_block``) and naming its aggregations: strings like
    # "sum" run vectorised on the columnar path and through
    # arithmetic-identical wrappers on the object path, so
    # ``JobConf(columnar=False)`` is a drop-in oracle for the same job.
    # ------------------------------------------------------------------
    def degree_mass_map(part_id, nodes, ctx):
        # one typed batch instead of len(nodes) Python pairs
        ctx.emit_block(graph.out_degree()[nodes] % 7,
                       np.ones(len(nodes)))

    chunk = np.array_split(np.arange(graph.num_nodes), 4)
    job = Job(map_fn=degree_mass_map, reduce_fn="sum", combine_fn="sum")
    with MapReduceRuntime("serial") as rt:
        fast = rt.run(job, [[(p, c)] for p, c in enumerate(chunk)])
        oracle_conf = JobConf(columnar=False)
        oracle = rt.run(Job(degree_mass_map, "sum", combine_fn="sum",
                            conf=oracle_conf),
                        [[(p, c)] for p, c in enumerate(chunk)])
    assert fast.output == oracle.output  # byte-identical result

    # Iterative specs opt in by declaring the columnar hooks
    # (supports_columnar / gmap_emit_columnar / columnar_reduce /
    # columnar_combine); EngineBackend then routes every global
    # iteration through the fast path automatically — columnar=False
    # keeps the object path as the oracle.
    import time

    t0 = time.perf_counter()
    fast_pr = run_single(EngineBackend(PageRankKVSpec(graph, partition)),
                         DriverConfig(mode="eager"))
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    slow_pr = run_single(EngineBackend(PageRankKVSpec(graph, partition),
                                       columnar=False),
                         DriverConfig(mode="eager"))
    t_slow = time.perf_counter() - t0
    print()
    print(ascii_table(
        ["engine path", "global iters", "wall time (s)"],
        [["columnar + combiner", fast_pr.global_iters, f"{t_fast:.2f}"],
         ["object (oracle)", slow_pr.global_iters, f"{t_slow:.2f}"]],
        title="4. Columnar shuffle fast path (PageRankKVSpec opts in; "
              "map-side combiner pre-folds contributions)"))

    # ------------------------------------------------------------------
    # 5. Columnar end to end: string keys over the shared-memory
    # transport.
    #
    # The process executor ships every above-threshold columnar payload
    # as a named shared-memory segment: the worker writes the raw
    # buffers once and returns only the segment name plus dtype/shape
    # metadata; the reader maps it in place.  Zero pipe traffic for the
    # data — and a fat map function is parked the same way, once per
    # run instead of once per task.  Segment lifetime is driver-owned:
    # every run ends by unlinking each name its attempts could have
    # parked, so /dev/shm holds none of them after a job, retries
    # included.
    # ------------------------------------------------------------------
    docs = ["the quick brown fox jumps over the lazy dog"] * 4
    splits = [[(i, d)] for i, d in enumerate(docs)]
    wc_job = Job(word_batch_map, "sum", combine_fn="sum",
                 conf=JobConf(num_reducers=2))
    with MapReduceRuntime("processes", workers=2, shm_min_bytes=64) as prt:
        over_shm = prt.run(wc_job, splits)
        # every run's segment names start with the driver's pid
        leftover = len(glob.glob(f"/dev/shm/reproshm-{os.getpid():x}-*"))
    with MapReduceRuntime("serial") as srt:
        over_pipe = srt.run(wc_job, splits)
    assert over_shm.output == over_pipe.output  # transport, not semantics
    print()
    print(ascii_table(
        ["transport", "counts", "live segments after"],
        [["shared memory (processes)",
          str(dict(over_shm.output)), str(leftover)],
         ["in-process (serial)", str(dict(over_pipe.output)), "-"]],
        title="5. String-key wordcount over the shm transport"))

    # ------------------------------------------------------------------
    # 6. Barrier to chaos: the same PageRank workload across the whole
    # synchronization axis.  staleness=0 reproduces the barrier charge
    # for charge; each relaxed round drops the per-round job startup,
    # reduce wave, and barrier drain, trading rounds for cheaper rounds.
    # ------------------------------------------------------------------
    rows = []
    for bound in (0, 1, 2, None):
        cfg = DriverConfig(mode="eager",
                           state_store=OnlineStateStore(num_tablets=8))
        res = run_single(
            AsyncBackend(PageRankBlockSpec(graph, partition),
                         staleness=bound),
            cfg)
        label = "chaotic (None)" if bound is None else f"S = {bound}"
        if bound == 0:
            label += "  (= barrier)"
        rows.append([label, res.global_iters,
                     f"{res.sim_time / res.global_iters:,.1f}",
                     f"{res.sim_time:,.0f}"])
    print()
    print(ascii_table(
        ["staleness bound", "global iters", "s/round", "sim time (s)"],
        rows, title="6a. Barrier -> chaotic spectrum (PageRank)"))

    # The guard rail: a Jacobi system with rho(M) < 1 < rho(|M|)
    # contracts under the barrier but oscillates divergently under pure
    # chaos — the DivergenceDetector notices the non-contracting
    # residual window and tightens the bound back to 0.
    from repro.apps.jacobi import SparseSystem, jacobi_spec
    from repro.graph import DiGraph, Partition

    m = 0.55 * np.array([[0.0, 1.0, -1.0],
                         [-1.0, 0.0, 1.0],
                         [1.0, -1.0, 0.0]])
    r, c = np.nonzero(m)
    system = SparseSystem(n=3, rows=r, cols=c, vals=-m[r, c],
                          diag=np.ones(3), b=np.array([1.0, -0.5, 0.25]))
    tri = Partition(graph=DiGraph(3, r, c), assign=np.arange(3), k=3)
    detector = DivergenceDetector()
    rescued = jacobi_spec(system, tri, tol=1e-6, staleness=None,
                          phase=(0.0, 0.34, 0.67), detector=detector,
                          require_dominant=False,
                          config=DriverConfig(mode="eager",
                                              max_global_iters=800)).run()
    trace = " -> ".join(
        f"{'None' if old is None else old}@{it}" for it, old, _ in
        detector.events) + " -> 0"
    print()
    print("6b. divergence rescue: chaotic Jacobi on a rho(|M|) > 1 "
          "system "
          f"{'converged' if rescued.converged else 'failed'} in "
          f"{rescued.global_iters} iters after tightening "
          f"{trace} (residual {system.residual_norm(rescued.state):.1e}).")


if __name__ == "__main__":
    main()
