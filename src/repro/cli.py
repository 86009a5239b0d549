"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro pagerank --graph A --scale 0.01 -k 8 --mode eager
    python -m repro sssp     --graph A --scale 0.01 -k 8 --source 0
    python -m repro kmeans   --rows 20000 --clusters 8 --threshold 0.01
    python -m repro schedule --jobs pagerank,kmeans,sssp --policy fair
    python -m repro sweep    --figure 2            # any of 2..9
    python -m repro autotune --graph A --scale 0.01 --candidates 2,8,32

``schedule`` multiplexes several heterogeneous iterative jobs onto ONE
shared simulated cluster through the Session API
(:mod:`repro.core.session`) under a chosen scheduling policy (FIFO /
round-robin / fair-share) and reports per-job contention metrics.  The
single-job subcommands accept ``--adaptive-sync`` to retune the
local-iteration budget per round
(:class:`~repro.core.AdaptiveSyncPolicy`).

Every subcommand prints an ASCII report (the same tables the benchmark
suite produces) and exits non-zero on failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Asynchronous Algorithms in MapReduce' "
                    "(Kambatla et al., CLUSTER 2010)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--graph", choices=["A", "B"], default="A",
                       help="Table II input graph")
        p.add_argument("--scale", type=float, default=0.01,
                       help="fraction of the paper's node count")
        p.add_argument("-k", "--partitions", type=int, default=8,
                       help="number of partitions")
        p.add_argument("--partitioner", default="multilevel",
                       help="partitioner: multilevel/bfs/chunk/hash/random")
        p.add_argument("--seed", type=int, default=0)

    def add_adaptive_sync(p: argparse.ArgumentParser) -> None:
        p.add_argument("--adaptive-sync", action="store_true",
                       help="retune the local-iteration budget per round "
                            "(AdaptiveSyncPolicy) instead of the paper's "
                            "fixed budget")

    def add_speculate(p: argparse.ArgumentParser) -> None:
        p.add_argument("--speculate", action="store_true",
                       help="speculatively re-execute straggling tasks "
                            "(LATE-style backup copies; first result wins)")

    def add_async_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--backend", choices=["block", "async"],
                       default="block",
                       help="iteration backend: the barrier-per-round block "
                            "path, or the no-barrier async backend "
                            "(bounded-staleness tablet publish/consume)")
        p.add_argument("--staleness", default="0", metavar="N",
                       help="staleness bound for the async backend: 0 = "
                            "barrier semantics, N = reads may lag N rounds, "
                            "'none'/'inf' = unbounded chaotic iteration "
                            "(a nonzero bound implies --backend async)")

    p_pr = sub.add_parser("pagerank", help="PageRank (Figs 2-5 workload)")
    add_graph_args(p_pr)
    p_pr.add_argument("--mode", choices=["general", "eager", "both"],
                      default="both")
    p_pr.add_argument("--damping", type=float, default=0.85)
    p_pr.add_argument("--tol", type=float, default=1e-5)
    add_adaptive_sync(p_pr)
    add_async_args(p_pr)
    add_speculate(p_pr)

    p_sp = sub.add_parser("sssp", help="Shortest path (Figs 6-7 workload)")
    add_graph_args(p_sp)
    p_sp.add_argument("--mode", choices=["general", "eager", "both"],
                      default="both")
    p_sp.add_argument("--source", type=int, default=0)
    add_adaptive_sync(p_sp)
    add_async_args(p_sp)
    add_speculate(p_sp)

    p_jc = sub.add_parser(
        "jacobi",
        help="block-Jacobi linear solve (the §VI generality workload)")
    add_graph_args(p_jc)
    p_jc.add_argument("--mode", choices=["general", "eager", "both"],
                      default="both")
    p_jc.add_argument("--tol", type=float, default=1e-8)
    p_jc.add_argument("--dominance", type=float, default=1.5,
                      help="diagonal dominance factor of the generated "
                           "system (must be > 1)")
    add_async_args(p_jc)
    add_speculate(p_jc)

    p_km = sub.add_parser("kmeans", help="K-Means (Figs 8-9 workload)")
    p_km.add_argument("--rows", type=int, default=20_000)
    p_km.add_argument("--clusters", type=int, default=8)
    p_km.add_argument("--threshold", type=float, default=0.01)
    p_km.add_argument("-k", "--partitions", type=int, default=52)
    p_km.add_argument("--mode", choices=["general", "eager", "both"],
                      default="both")
    p_km.add_argument("--seed", type=int, default=0)
    add_adaptive_sync(p_km)
    add_speculate(p_km)

    p_sc = sub.add_parser(
        "schedule",
        help="run several jobs on ONE shared cluster (Session API)")
    add_graph_args(p_sc)
    p_sc.add_argument("--jobs", default="pagerank,kmeans,sssp",
                      help="comma-separated job mix; any of "
                           "pagerank/sssp/kmeans/components, repeatable "
                           "(e.g. pagerank,pagerank,kmeans)")
    p_sc.add_argument("--policy", choices=["fifo", "rr", "fair"],
                      default="fair",
                      help="scheduling policy: fifo (one job at a time), "
                           "rr (round-robin time-slicing), fair "
                           "(fair-share slot split)")
    p_sc.add_argument("--mode", choices=["general", "eager"],
                      default="eager")
    p_sc.add_argument("--rows", type=int, default=5_000,
                      help="points for the kmeans job")
    p_sc.add_argument("--clusters", type=int, default=8,
                      help="centroids for the kmeans job")
    p_sc.add_argument("--state-store", choices=["dfs", "online"],
                      default="dfs",
                      help="inter-round state store ALL jobs share: the "
                           "replicated DFS, or the Bigtable-like online "
                           "store (tablet-sharded; see --tablets)")
    p_sc.add_argument("--tablets", type=int, default=8,
                      help="tablet count of the shared online store "
                           "(--state-store online)")
    p_sc.add_argument("--backend", choices=["block", "async"],
                      default="block",
                      help="backend for the jobs that support no-barrier "
                           "iteration (pagerank/sssp); others stay on the "
                           "block path")
    p_sc.add_argument("--staleness", default="0", metavar="N",
                      help="staleness bound for --backend async: 0, N, or "
                           "'none'/'inf' (needs --state-store online)")
    p_sc.add_argument("--split-threshold", type=float, default=None,
                      metavar="BYTES",
                      help="auto-split a tablet of the shared online store "
                           "once its cumulative bytes cross this threshold "
                           "(--state-store online; default: no splitting)")
    p_sc.add_argument("--merge-threshold", type=float, default=None,
                      metavar="BYTES",
                      help="merge adjacent tablets of the shared online "
                           "store while their combined cumulative bytes "
                           "stay under this threshold (--state-store "
                           "online; default: no merging)")
    p_sc.add_argument("--kill-node", type=int, default=None, metavar="N",
                      help="kill worker node N mid-run (correlated-failure "
                           "injection; see --kill-round/--kill-at)")
    p_sc.add_argument("--kill-rack", type=int, default=None, metavar="R",
                      help="kill every node of rack R mid-run (mutually "
                           "exclusive with --kill-node)")
    p_sc.add_argument("--kill-round", type=int, default=0, metavar="I",
                      help="global iteration the kill fires in (default 0)")
    p_sc.add_argument("--kill-at", type=float, default=0.0, metavar="S",
                      help="simulated seconds into the kill round the "
                           "domain dies (default 0.0)")
    p_sc.add_argument("--heartbeat", type=float, default=3.0, metavar="S",
                      help="heartbeat interval pricing death *detection* "
                           "latency (default 3.0 simulated s)")
    add_speculate(p_sc)

    p_sw = sub.add_parser("sweep", help="regenerate one figure's sweep")
    p_sw.add_argument("--figure", type=int, required=True,
                      choices=[2, 3, 4, 5, 6, 7, 8, 9])
    p_sw.add_argument("--scale", type=float, default=None,
                      help="override REPRO_SCALE for this run")

    p_at = sub.add_parser("autotune",
                          help="pick the partition count (§VIII granularity)")
    add_graph_args(p_at)
    p_at.add_argument("--candidates", default="2,4,8,16,32",
                      help="comma-separated partition counts to probe")
    p_at.add_argument("--probe-iters", type=int, default=3)

    return parser


def _load_graph(args, *, weighted: bool = False):
    from repro.graph import attach_random_weights, make_paper_graph, partition_graph

    g = make_paper_graph(args.graph, scale=args.scale, seed=args.seed)
    if weighted:
        g = attach_random_weights(g, seed=args.seed + 1)
    part = partition_graph(g, args.partitions, method=args.partitioner,
                           seed=args.seed)
    return g, part


def _modes(arg: str) -> "list[str]":
    return ["general", "eager"] if arg == "both" else [arg]


def _report(title: str, rows: "list[list]") -> None:
    from repro.util import ascii_table

    print(ascii_table(["mode", "global iters", "simulated time (s)",
                       "converged"], rows, title=title))


def _sync_policy(args):
    """Build the per-run AdaptiveSyncPolicy when --adaptive-sync is set."""
    if not getattr(args, "adaptive_sync", False):
        return None
    from repro.core import AdaptiveSyncPolicy

    return AdaptiveSyncPolicy()


def _parse_staleness(value: str) -> "int | None":
    """``--staleness`` values: 'none'/'inf' -> unbounded, else int >= 0."""
    v = str(value).strip().lower()
    if v in ("none", "inf", "unbounded"):
        return None
    try:
        n = int(v)
    except ValueError:
        raise ValueError(
            f"--staleness must be an integer >= 0 or 'none'/'inf', "
            f"got {value!r}") from None
    if n < 0:
        raise ValueError(
            f"--staleness must be >= 0 (or 'none'/'inf' for unbounded "
            f"chaotic iteration), got {n}")
    return n


def _async_args(args, mode: str):
    """Resolve (backend, staleness, config) for a single-job subcommand.

    Nonzero staleness needs the online tablet store for its continuous
    publish/consume path, so the async configurations get a
    single-tablet ``OnlineStateStore`` in place of the default DFS.
    ``--speculate`` also forces an explicit config (the default one has
    speculation off).
    """
    from repro.cluster.statestore import OnlineStateStore
    from repro.core import DriverConfig

    staleness = _parse_staleness(args.staleness)
    speculate = bool(getattr(args, "speculate", False))
    use_async = args.backend == "async" or staleness != 0
    cfg = None
    if use_async:
        cfg = DriverConfig(
            mode=mode, speculate=speculate,
            state_store=lambda: OnlineStateStore(num_tablets=1))
    elif speculate:
        cfg = DriverConfig(mode=mode, speculate=True)
    return args.backend, staleness, cfg


def _cmd_pagerank(args) -> int:
    from repro.apps import pagerank
    from repro.cluster import SimCluster

    g, part = _load_graph(args)
    rows = []
    for mode in _modes(args.mode):
        backend, staleness, cfg = _async_args(args, mode)
        res = pagerank(g, part, mode=mode, damping=args.damping, tol=args.tol,
                       cluster=SimCluster(), sync_policy=_sync_policy(args),
                       backend=backend, staleness=staleness, config=cfg)
        rows.append([mode, res.global_iters, f"{res.sim_time:,.0f}",
                     "yes" if res.converged else "no"])
    _report(f"PageRank on Graph {args.graph} "
            f"({g.num_nodes} nodes, {args.partitions} partitions)", rows)
    return 0


def _cmd_sssp(args) -> int:
    from repro.apps import sssp
    from repro.cluster import SimCluster

    g, part = _load_graph(args, weighted=True)
    rows = []
    for mode in _modes(args.mode):
        backend, staleness, cfg = _async_args(args, mode)
        res = sssp(g, part, source=args.source, mode=mode, cluster=SimCluster(),
                   sync_policy=_sync_policy(args),
                   backend=backend, staleness=staleness, config=cfg)
        rows.append([mode, res.global_iters, f"{res.sim_time:,.0f}",
                     "yes" if res.converged else "no"])
    _report(f"SSSP on Graph {args.graph} from source {args.source}", rows)
    return 0


def _cmd_jacobi(args) -> int:
    from repro.apps import jacobi_solve, make_diagonally_dominant_system
    from repro.cluster import SimCluster

    g, part = _load_graph(args)
    system = make_diagonally_dominant_system(part, dominance=args.dominance,
                                             seed=args.seed)
    rows = []
    for mode in _modes(args.mode):
        backend, staleness, cfg = _async_args(args, mode)
        res = jacobi_solve(system, part, mode=mode, tol=args.tol,
                           cluster=SimCluster(),
                           backend=backend, staleness=staleness, config=cfg)
        rows.append([mode, res.global_iters, f"{res.sim_time:,.0f}",
                     "yes" if res.converged else "no"])
        print(f"  {mode} ||Ax - b||_inf: {res.residual_norm:.3e}")
    _report(f"Jacobi solve on Graph {args.graph}'s sparsity "
            f"({g.num_nodes} unknowns, {args.partitions} partitions)", rows)
    return 0


def _cmd_kmeans(args) -> int:
    from repro.apps import kmeans, sse
    from repro.cluster import SimCluster
    from repro.data import census_sample

    pts = census_sample(args.rows, seed=args.seed)
    rows = []
    for mode in _modes(args.mode):
        cfg = None
        if args.speculate:
            from repro.core import DriverConfig

            cfg = DriverConfig(mode=mode, speculate=True)
        res = kmeans(pts, args.clusters, mode=mode, threshold=args.threshold,
                     num_partitions=args.partitions, cluster=SimCluster(),
                     seed=args.seed, sync_policy=_sync_policy(args),
                     config=cfg)
        rows.append([mode, res.global_iters, f"{res.sim_time:,.0f}",
                     "yes" if res.converged else "no"])
        print(f"  {mode} SSE: {sse(pts, res.centroids):,.0f}")
    _report(f"K-Means on census sample ({args.rows} x 68, "
            f"k={args.clusters}, delta={args.threshold})", rows)
    return 0


def _cmd_schedule(args) -> int:
    from dataclasses import replace

    from repro.apps import (components_spec, kmeans_spec, pagerank_spec,
                            sssp_spec)
    from repro.cluster import DFSStateStore, OnlineStateStore, SimCluster
    from repro.core import Session
    from repro.engine import NodeFaultPlan
    from repro.data import census_sample
    from repro.graph import attach_random_weights
    from repro.util import ascii_table

    job_names = [j.strip() for j in args.jobs.split(",") if j.strip()]
    if not job_names:
        raise ValueError("--jobs must name at least one job")
    unknown = set(job_names) - {"pagerank", "sssp", "kmeans", "components"}
    if unknown:
        raise ValueError(f"unknown jobs: {sorted(unknown)} "
                         f"(expected pagerank/sssp/kmeans/components)")

    staleness = _parse_staleness(args.staleness)
    use_async = args.backend == "async" or staleness != 0
    if use_async and args.state_store != "online":
        raise ValueError("--backend async (or a nonzero --staleness) needs "
                         "--state-store online: no-barrier publish/consume "
                         "runs through the shared tablet store")

    g, part = _load_graph(args)
    wg = attach_random_weights(g, seed=args.seed + 1)

    def spec_for(job: str, idx: int):
        label = f"{job}#{idx}"
        if job == "pagerank":
            return pagerank_spec(g, part, mode=args.mode, name=label,
                                 backend=args.backend, staleness=staleness)
        if job == "sssp":
            return sssp_spec(wg, part, mode=args.mode, name=label,
                             backend=args.backend, staleness=staleness)
        if job == "components":
            return components_spec(g, part, mode=args.mode, name=label)
        pts = census_sample(args.rows, seed=args.seed)
        return kmeans_spec(pts, args.clusters, mode=args.mode,
                           num_partitions=args.partitions, seed=args.seed,
                           name=label)

    for flag, name in ((args.split_threshold, "--split-threshold"),
                       (args.merge_threshold, "--merge-threshold")):
        if flag is not None and args.state_store != "online":
            raise ValueError(f"{name} applies to the online store "
                             f"only; add --state-store online")
    if args.kill_node is not None and args.kill_rack is not None:
        raise ValueError("--kill-node and --kill-rack are mutually "
                         "exclusive (one failure domain per run)")
    node_faults = None
    if args.kill_node is not None:
        node_faults = NodeFaultPlan.kill_node(
            args.kill_node, round=args.kill_round, at_seconds=args.kill_at,
            heartbeat_seconds=args.heartbeat)
    elif args.kill_rack is not None:
        node_faults = NodeFaultPlan.kill_rack(
            args.kill_rack, round=args.kill_round, at_seconds=args.kill_at,
            heartbeat_seconds=args.heartbeat)

    # One store shared by every job: multi-job runs contend on the same
    # tablets (an --state-store online run reports the tablet skew).
    store = (OnlineStateStore(num_tablets=args.tablets,
                              split_threshold=args.split_threshold,
                              merge_threshold=args.merge_threshold)
             if args.state_store == "online" else DFSStateStore())
    with Session(cluster=SimCluster(node_faults=node_faults),
                 policy=args.policy, state_store=store) as session:
        handles = []
        for i, job in enumerate(job_names):
            spec = spec_for(job, i)
            if args.speculate:
                spec.config = replace(spec.config, speculate=True)
            handles.append(session.submit(spec))
        session.run()

        def spec_stats(h):
            hist = h.result.history
            return (sum(r.backups for r in hist),
                    sum(r.backups_won for r in hist),
                    sum(r.wasted_seconds for r in hist),
                    sum(r.tablet_splits for r in hist))

        rows = [
            [h.name, h.rounds, f"{h.queue_wait:,.0f}",
             f"{h.busy_seconds:,.0f}", f"{h.makespan:,.0f}",
             f"{min(h.slot_shares):.2f}-{max(h.slot_shares):.2f}",
             "yes" if h.result.converged else "no"]
            for h in handles
        ]
        print(ascii_table(
            ["job", "rounds", "queue wait (s)", "busy (s)", "makespan (s)",
             "slot share", "converged"],
            rows,
            title=f"Session schedule: {len(handles)} jobs on one shared "
                  f"cluster ({session.policy.name})"))
        print(f"cluster makespan: {session.makespan():,.0f} simulated s; "
              f"mean job latency: {session.mean_latency():,.0f} simulated s")
        if args.speculate or args.split_threshold is not None:
            srows = []
            for h in handles:
                backups, won, wasted, splits = spec_stats(h)
                srows.append([h.name, backups, won, f"{wasted:,.1f}", splits])
            print(ascii_table(
                ["job", "backups", "backups won", "wasted (s)",
                 "tablet splits"],
                srows, title="Speculation / auto-split"))
        if node_faults is not None:
            frows = []
            for h in handles:
                hist = h.result.history
                frows.append([
                    h.name,
                    sum(r.node_deaths for r in hist),
                    sum(r.lost_map_outputs for r in hist),
                    sum(r.rounds_replayed for r in hist),
                    f"{sum(r.recovery_seconds for r in hist):,.1f}",
                ])
            print(ascii_table(
                ["job", "node deaths", "lost map outputs",
                 "rounds replayed", "recovery (s)"],
                frows, title="Correlated-failure recovery"))
        if args.state_store == "online":
            print(f"shared online store: {store.num_tablets} tablets, "
                  f"hottest-tablet load {store.imbalance():.2f}x the mean, "
                  f"{len(store.split_events)} splits, "
                  f"{len(store.merge_events)} merges "
                  f"(tablet map v{store.tablet_map_version})")
    return 0


def _cmd_sweep(args) -> int:
    from repro.bench import (kmeans_sweep, pagerank_sweep, report_sweep,
                             sssp_sweep)

    fig = args.figure
    if fig in (2, 4):
        result = pagerank_sweep("A", scale=args.scale)
    elif fig in (3, 5):
        result = pagerank_sweep("B", scale=args.scale)
    elif fig in (6, 7):
        result = sssp_sweep(scale=args.scale)
    else:
        result = kmeans_sweep()
    value = "iterations" if fig in (2, 3, 6, 8) else "sim_time"
    x_label = "threshold" if fig in (8, 9) else "#partitions"
    print(report_sweep(result, value=value, x_label=x_label,
                       title=f"Figure {fig}"))
    return 0


def _cmd_autotune(args) -> int:
    from repro.apps.pagerank import PageRankBlockSpec
    from repro.core import autotune_partitions
    from repro.graph import make_paper_graph, partition_graph
    from repro.util import ascii_table

    g = make_paper_graph(args.graph, scale=args.scale, seed=args.seed)
    candidates = [int(c) for c in args.candidates.split(",") if c.strip()]

    def factory(k: int):
        part = partition_graph(g, k, method=args.partitioner, seed=args.seed)
        return PageRankBlockSpec(g, part)

    report = autotune_partitions(factory, candidates,
                                 probe_iters=args.probe_iters)
    rows = [[p.k, p.probe_iters, f"{p.seconds_per_round:.1f}",
             f"{p.contraction:.2f}", p.predicted_rounds,
             f"{p.predicted_seconds:,.0f}"]
            for p in report.ranking()]
    print(ascii_table(
        ["k", "probe iters", "s/round", "contraction", "pred. rounds",
         "pred. total (s)"],
        rows, title=f"Autotune (Graph {args.graph}): best k = {report.best_k}"))
    print(f"probe cost: {report.probe_seconds:,.0f} simulated s")
    return 0


_COMMANDS = {
    "pagerank": _cmd_pagerank,
    "sssp": _cmd_sssp,
    "jacobi": _cmd_jacobi,
    "kmeans": _cmd_kmeans,
    "schedule": _cmd_schedule,
    "sweep": _cmd_sweep,
    "autotune": _cmd_autotune,
}


def main(argv: "Sequence[str] | None" = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
