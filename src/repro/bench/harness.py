"""Benchmark harness: experiment definitions for every table and figure.

Each figure of the paper corresponds to one sweep function here; the
files under ``benchmarks/`` call these, print the same series the paper
plots, and assert the qualitative shape (who wins, monotonicity, rough
factors).  Results are memoised per (experiment, scale) so the paired
figures that share a sweep (iterations + time from the same runs, e.g.
Figs 2 & 4) compute it once.

Scaling
-------
The paper's inputs (Table II: 280K/100K nodes, ~3M edges; 200K census
rows) and its partition axis (100..6400) are reproduced at a
configurable scale.  ``REPRO_SCALE`` controls it: ``full`` (paper size),
a float (fraction), or unset (the laptop default, 0.1 for graphs).  The
*partition counts are scaled with the graph* so each sweep point keeps
the paper's partition-size regime (e.g. paper's 100 partitions of a 280K
graph = 2800 nodes/partition); reports show the paper-equivalent count.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np

from repro.apps import kmeans, pagerank, sssp
from repro.cluster import EC2_DEFAULTS, SimCluster, ec2_nodes
from repro.core import DriverConfig
from repro.data import census_sample
from repro.graph import (
    DiGraph,
    Partition,
    attach_random_weights,
    make_paper_graph,
    partition_graph,
)
from repro.util import ascii_table, format_series

__all__ = [
    "graph_scale",
    "kmeans_rows",
    "scaled_partitions",
    "PAPER_PARTITION_COUNTS",
    "PAPER_KMEANS_THRESHOLDS",
    "PAPER_KMEANS_PARTITIONS",
    "SweepPoint",
    "SweepResult",
    "get_graph",
    "get_partition",
    "pagerank_sweep",
    "sssp_sweep",
    "kmeans_sweep",
    "make_cluster",
    "report_sweep",
    "speedup_summary",
]

#: Figure 2-7 x axis (number of partitions).
PAPER_PARTITION_COUNTS = (100, 200, 400, 800, 1600, 3200, 6400)
#: Figure 8-9 x axis (convergence threshold delta).
PAPER_KMEANS_THRESHOLDS = (0.1, 0.01, 0.001, 0.0001)
#: Figure 8-9 partition count ("a fixed number of partitions (52)").
PAPER_KMEANS_PARTITIONS = 52

_DEFAULT_GRAPH_SCALE = 0.1
_DEFAULT_KMEANS_ROWS = 100_000


def graph_scale() -> float:
    """Graph scale from ``REPRO_SCALE`` (``full`` -> 1.0; default 0.1)."""
    raw = os.environ.get("REPRO_SCALE", "")
    if not raw:
        return _DEFAULT_GRAPH_SCALE
    if raw.lower() == "full":
        return 1.0
    value = float(raw)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"REPRO_SCALE must be in (0, 1] or 'full', got {raw!r}")
    return value


def kmeans_rows() -> int:
    """Census rows for the K-Means figures, honouring ``REPRO_SCALE``."""
    raw = os.environ.get("REPRO_SCALE", "")
    if raw.lower() == "full":
        return 200_000
    if raw:
        return max(5_000, int(200_000 * float(raw)))
    return _DEFAULT_KMEANS_ROWS


def scaled_partitions(scale: float) -> "list[tuple[int, int]]":
    """(paper_k, effective_k) pairs keeping the partition-size regime."""
    return [(k, max(2, int(round(k * scale)))) for k in PAPER_PARTITION_COUNTS]


def make_cluster() -> SimCluster:
    """A fresh Table I testbed (8 EC2 XL nodes, EC2-like cost model)."""
    return SimCluster(ec2_nodes(), EC2_DEFAULTS)


@dataclass(frozen=True)
class SweepPoint:
    """One x-axis point of a figure, for one implementation."""

    x: object              # paper-axis value (partitions or threshold)
    effective_x: object    # the actually-used value after scaling
    mode: str              # "general" | "eager"
    iterations: int
    sim_time: float
    converged: bool
    extra: dict = field(default_factory=dict)


@dataclass
class SweepResult:
    """All points of one experiment (both modes)."""

    name: str
    points: "list[SweepPoint]"

    def series(self, mode: str, *, value: str = "iterations") -> "tuple[list, list]":
        xs = [p.x for p in self.points if p.mode == mode]
        ys = [getattr(p, value) for p in self.points if p.mode == mode]
        return xs, ys


# ----------------------------------------------------------------------
# Cached inputs
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _graph_cached(which: str, scale: float, weighted: bool) -> DiGraph:
    if weighted:
        # the weighted twin of the cached graph: generate once, not twice
        return attach_random_weights(_graph_cached(which, scale, False),
                                     low=1.0, high=10.0, seed=1)
    return make_paper_graph(which, scale=scale, seed=0)


def get_graph(which: str, scale: float, *, weighted: bool = False) -> DiGraph:
    """Table II graph at the given scale (optionally with SSSP weights).

    Memoised: repeated calls with the same arguments return the *same*
    object, so figure pairs sharing inputs share memory too.
    """
    return _graph_cached(which, float(scale), bool(weighted))


@functools.lru_cache(maxsize=64)
def _partition_cached(which: str, scale: float, k: int, weighted: bool,
                      method: str) -> Partition:
    return partition_graph(get_graph(which, scale, weighted=weighted), k,
                           method=method, seed=0)


def get_partition(which: str, scale: float, k: int, *, weighted: bool = False,
                  method: str = "multilevel") -> Partition:
    """Cached locality-enhancing partition (the paper's one-time Metis run)."""
    return _partition_cached(which, float(scale), int(k), bool(weighted),
                             method)


# ----------------------------------------------------------------------
# Sweeps (Figures 2-9)
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def pagerank_sweep(which: str, *, scale: "float | None" = None,
                   method: str = "multilevel",
                   eager_schedule: bool = True) -> SweepResult:
    """Figures 2/3 (iterations) and 4/5 (time): PageRank vs #partitions."""
    s = scale if scale is not None else graph_scale()
    g = get_graph(which, s)
    points: list[SweepPoint] = []
    for paper_k, k in scaled_partitions(s):
        if k > g.num_nodes:
            continue
        part = get_partition(which, s, k, method=method)
        for mode in ("general", "eager"):
            cfg = DriverConfig(mode=mode, eager_schedule=eager_schedule)
            res = pagerank(g, part, cluster=make_cluster(), config=cfg)
            points.append(SweepPoint(
                x=paper_k, effective_x=k, mode=mode,
                iterations=res.global_iters, sim_time=res.sim_time,
                converged=res.converged,
                extra={"cut_fraction": part.cut_fraction()},
            ))
    return SweepResult(name=f"pagerank-{which}", points=points)


@functools.lru_cache(maxsize=8)
def sssp_sweep(*, scale: "float | None" = None, method: str = "multilevel",
               source: int = 0) -> SweepResult:
    """Figures 6 (iterations) and 7 (time): SSSP on Graph A vs #partitions."""
    s = scale if scale is not None else graph_scale()
    g = get_graph("A", s, weighted=True)
    points: list[SweepPoint] = []
    for paper_k, k in scaled_partitions(s):
        if k > g.num_nodes:
            continue
        part = get_partition("A", s, k, weighted=True, method=method)
        for mode in ("general", "eager"):
            res = sssp(g, part, source=source, mode=mode, cluster=make_cluster())
            points.append(SweepPoint(
                x=paper_k, effective_x=k, mode=mode,
                iterations=res.global_iters, sim_time=res.sim_time,
                converged=res.converged,
                extra={"cut_fraction": part.cut_fraction()},
            ))
    return SweepResult(name="sssp-A", points=points)


@functools.lru_cache(maxsize=8)
def kmeans_sweep(*, rows: "int | None" = None, k: int = 8,
                 partitions: "int | None" = None) -> SweepResult:
    """Figures 8 (iterations) and 9 (time): K-Means vs threshold delta.

    ``partitions`` defaults to the paper's 52 scaled by ``REPRO_SCALE``
    — the same partition-size-preserving rule the graph sweeps use.  At
    smoke scales the fixed paper count would slice a few thousand rows
    into partitions too small to aggregate, which both distorts the
    figure shape and starves the per-partition K-Means updates.
    """
    n = rows if rows is not None else kmeans_rows()
    if partitions is None:
        partitions = max(2, int(round(PAPER_KMEANS_PARTITIONS
                                      * graph_scale())))
    pts = census_sample(n, noise=0.35, num_profiles=12, seed=0)
    points: list[SweepPoint] = []
    for thr in PAPER_KMEANS_THRESHOLDS:
        for mode in ("general", "eager"):
            res = kmeans(pts, k, mode=mode, threshold=thr,
                         num_partitions=partitions, cluster=make_cluster(),
                         seed=3)
            points.append(SweepPoint(
                x=thr, effective_x=thr, mode=mode,
                iterations=res.global_iters, sim_time=res.sim_time,
                converged=res.converged,
            ))
    return SweepResult(name="kmeans", points=points)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def report_sweep(result: SweepResult, *, value: str = "iterations",
                 x_label: str = "#partitions", title: str = "") -> str:
    """Render a figure's two series (Eager / General) like the paper plots."""
    out = []
    if title:
        out.append(title)
    headers = [x_label, "Eager", "General", "General/Eager"]
    xs_e, ys_e = result.series("eager", value=value)
    xs_g, ys_g = result.series("general", value=value)
    assert xs_e == xs_g
    rows = []
    for x, e, g in zip(xs_e, ys_e, ys_g):
        ratio = g / e if e else float("inf")
        rows.append([x, e, g, f"{ratio:.2f}x"])
    out.append(ascii_table(headers, rows))
    for mode in ("eager", "general"):
        xs, ys = result.series(mode, value=value)
        out.append(format_series(mode.capitalize(), xs, ys,
                                 x_label=x_label, y_label=value))
    return "\n".join(out)


def speedup_summary(result: SweepResult, *, value: str = "sim_time") -> "dict[str, float]":
    """Mean/max/min General-over-Eager ratio across the sweep."""
    xs_e, ys_e = result.series("eager", value=value)
    _, ys_g = result.series("general", value=value)
    ratios = np.array([g / e for g, e in zip(ys_g, ys_e) if e])
    if len(ratios) == 0:
        return {"mean": float("nan"), "max": float("nan"), "min": float("nan")}
    return {
        "mean": float(ratios.mean()),
        "max": float(ratios.max()),
        "min": float(ratios.min()),
    }
