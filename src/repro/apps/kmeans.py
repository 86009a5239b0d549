"""K-Means clustering: General and Eager formulations (§V-D).

**General** is the Mahout-style MapReduce K-Means the paper baselines
against: per global iteration, the map phase assigns every point to its
closest centroid and the reduce phase recomputes each centroid as the
mean of its points; iterations continue until the centroid movement
drops below a threshold delta (Euclidean metric).

**Eager** gives each gmap a unique subset of the points: "The local map
and local reduce iterations inside the global map cluster the given
subset of the points using the common input-cluster centroids.  Once the
local iterations converge, the global map emits the input-centroids and
their associated updated-centroids.  The global reduce calculates the
final-centroids" (§V-D).  Two refinements from Yom-Tov & Slonim [12] are
included, as the paper prescribes: the points are *repartitioned across
global maps every few iterations* (to avoid local optima), and the
convergence condition adds *oscillation detection* to the Euclidean
metric.

The global combine weights each partition's updated centroid by its
assigned-point count, which makes the general mode exactly Lloyd's
algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster import SimCluster
from repro.core import (
    AdaptiveSyncPolicy,
    BlockBackend,
    BlockSpec,
    CentroidShiftCriterion,
    DriverConfig,
    IterationLoop,
    IterativeResult,
    LocalSolveReport,
)
from repro.util import as_rng

__all__ = [
    "KMeansBlockSpec",
    "KMeansResult",
    "kmeans",
    "kmeans_spec",
    "kmeans_reference",
    "assign_points",
    "sse",
]

def assign_points(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the closest centroid for every point (squared Euclidean).

    Computed blockwise with the ||p||^2 - 2 p.c + ||c||^2 expansion so
    memory stays O(block * k) on large inputs.
    """
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    if points.ndim != 2 or centroids.ndim != 2:
        raise ValueError("points and centroids must be 2-D")
    if points.shape[1] != centroids.shape[1]:
        raise ValueError(
            f"dimension mismatch: points {points.shape[1]} vs "
            f"centroids {centroids.shape[1]}"
        )
    c_sq = (centroids ** 2).sum(axis=1)
    out = np.empty(len(points), dtype=np.int64)
    block = max(1, 2_000_000 // max(len(centroids), 1))
    for lo in range(0, len(points), block):
        chunk = points[lo: lo + block]
        d = chunk @ centroids.T
        d *= -2.0
        d += c_sq
        out[lo: lo + block] = d.argmin(axis=1)
    return out


def sse(points: np.ndarray, centroids: np.ndarray) -> float:
    """Within-cluster sum of squared errors (the K-Means objective)."""
    points = np.asarray(points, dtype=np.float64)
    assignment = assign_points(points, centroids)
    diffs = points - np.asarray(centroids)[assignment]
    return float((diffs ** 2).sum())


@dataclass
class KMeansResult:
    """Centroids plus run statistics."""

    centroids: np.ndarray
    global_iters: int
    converged: bool
    sim_time: float
    result: IterativeResult


class KMeansBlockSpec(BlockSpec):
    """Vectorised K-Means over point-subset partitions.

    Parameters
    ----------
    points:
        ``(n, d)`` data matrix (the census sample in the paper's setup).
    k:
        Number of clusters.
    num_partitions:
        Global map tasks per iteration (the paper fixes 52 for Figs 8-9).
    threshold:
        Centroid-movement convergence bound (the figures' x axis).
    reshuffle_every:
        Repartition the points across gmaps every this many global
        iterations (eager mode; Yom-Tov & Slonim).  0 disables.
    oscillation_detection:
        Enable the Yom-Tov & Slonim oscillation stopping condition.  The
        paper adds it only to the *eager* convergence check ("the
        convergence condition includes detection of oscillations along
        with the Euclidean metric", §V-D); the general baseline uses the
        plain centroid-movement threshold.  Oscillation is no new
        minimum of the shift within the last 4 global iterations.
    seed:
        Controls the random initial centroids ("initial centroids are
        chosen at random for the sake of generality", §V-D) and the
        repartitioning.
    """

    def __init__(self, points: np.ndarray, k: int, *,
                 num_partitions: int = 52,
                 threshold: float = 1e-3,
                 reshuffle_every: int = 5,
                 oscillation_detection: bool = True,
                 seed: "int | np.random.Generator | None" = 0) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or len(points) == 0:
            raise ValueError("points must be a non-empty (n, d) matrix")
        if not 1 <= k <= len(points):
            raise ValueError(f"k must be in [1, n], got {k}")
        if threshold <= 0:
            raise ValueError("threshold must be > 0")
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if reshuffle_every < 0:
            raise ValueError("reshuffle_every must be >= 0")
        self.points = points
        self.k = k
        self.threshold = threshold
        self.reshuffle_every = reshuffle_every
        self.num_parts = min(num_partitions, len(points))
        self.oscillation_detection = oscillation_detection
        self._rng = as_rng(seed)
        self._init_rng_state = self._rng.bit_generator.state
        self._criterion = CentroidShiftCriterion(threshold, window=4)
        self._repartition()

    def _repartition(self) -> None:
        """Shuffle points into ``num_parts`` roughly equal subsets."""
        perm = self._rng.permutation(len(self.points))
        self._parts = np.array_split(perm, self.num_parts)

    # -- BlockSpec interface --------------------------------------------
    def num_partitions(self) -> int:
        return self.num_parts

    def init_state(self) -> np.ndarray:
        """Random distinct points as initial centroids; resets criteria.

        The centroid draw happens before the first repartition so a run
        with seed ``s`` starts from exactly the same centroids as
        :func:`kmeans_reference` with the same seed.
        """
        self._rng.bit_generator.state = self._init_rng_state
        self._criterion.reset()
        idx = self._rng.choice(len(self.points), size=self.k, replace=False)
        self._repartition()
        return self.points[idx].copy()

    def on_global_iteration(self, iteration: int, state):
        """Yom-Tov & Slonim: repartition the points every few iterations
        so gmaps do not repeatedly cluster the same subsets (§V-D)."""
        if self.reshuffle_every and iteration > 0 \
                and iteration % self.reshuffle_every == 0:
            self._repartition()
        return None

    def local_solve(self, part_id: int, state: np.ndarray, *,
                    max_local_iters: int) -> LocalSolveReport:
        idx = self._parts[part_id]
        pts = self.points[idx]
        centroids = np.asarray(state, dtype=np.float64).copy()
        # Per-cluster feature sums as ONE flat scatter over (cluster,
        # feature) cells: each cell still accumulates its points in
        # point order, as a 2-D ``np.add.at(sums, assignment, pts)``
        # does, without that call's generic slow path.
        d = pts.shape[1]
        flat_pts, feature = pts.ravel(), np.arange(d)
        per_iter_ops: list[float] = []
        iters = 0
        sums = np.zeros_like(centroids)
        counts = np.zeros(self.k, dtype=np.float64)
        while iters < max_local_iters:
            assignment = assign_points(pts, centroids)
            cells = ((assignment * d)[:, None] + feature).ravel()
            sums = np.bincount(cells, weights=flat_pts,
                               minlength=self.k * d).reshape(self.k, d)
            counts = np.bincount(assignment, minlength=self.k).astype(np.float64)
            new_centroids = centroids.copy()
            nonempty = counts > 0
            new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
            # One record op per point (the map side) plus the centroid
            # records the local reduce touches.
            per_iter_ops.append(float(len(pts) + self.k))
            iters += 1
            shift = float(np.linalg.norm(new_centroids - centroids, axis=1).max())
            centroids = new_centroids
            if shift < self.threshold:
                break
        # The emitted (input-centroid -> updated-centroid) pairs are the
        # final local centroids with their supporting sums/counts — i.e.
        # the last in-loop assignment.  With a single local iteration the
        # assignment is by the *input* centroids, so the count-weighted
        # global combine reproduces one exact Lloyd step (the Mahout
        # baseline); recomputing the assignment after the loop would
        # smuggle in an extra half-step.
        shuffle_records = self.k  # one updated-centroid record per input centroid
        return LocalSolveReport(
            partition=part_id,
            updates=(sums, counts),
            local_iters=iters,
            per_iter_ops=per_iter_ops,
            shuffle_bytes=shuffle_records * (self.points.shape[1] + 1) * 8,
        )

    def global_combine(self, state, reports):
        centroids = np.asarray(state, dtype=np.float64)
        total_sums = np.zeros_like(centroids)
        total_counts = np.zeros(self.k, dtype=np.float64)
        for r in reports:
            sums, counts = r.updates
            total_sums += sums
            total_counts += counts
        new_centroids = centroids.copy()
        nonempty = total_counts > 0
        new_centroids[nonempty] = (total_sums[nonempty]
                                   / total_counts[nonempty, None])
        reduce_ops = float(self.k * len(reports))
        return new_centroids, reduce_ops, 0

    def global_converged(self, prev, curr):
        if self.oscillation_detection:
            done = self._criterion.update(np.asarray(prev), np.asarray(curr))
            return done, self._criterion.last_residual
        shift = float(np.linalg.norm(
            np.asarray(curr, dtype=np.float64)
            - np.asarray(prev, dtype=np.float64), axis=1).max())
        return shift < self.threshold, shift

    def state_nbytes(self, state) -> int:
        """The combined centroids — K-Means' inter-round state.

        Unlike the graph apps, the state is not partition-scoped: the
        global reduce writes ONE small centroid table that every gmap
        reads back.  Its per-partition state-store distribution is
        therefore uniform (the framework's even split of this total),
        which is K-Means' real profile — no partition owns a hotter key
        range than any other.
        """
        return int(np.asarray(state).nbytes)


# ----------------------------------------------------------------------
# High-level entry points
# ----------------------------------------------------------------------

def kmeans(
    points: np.ndarray,
    k: int,
    *,
    mode: str = "eager",
    num_partitions: int = 52,
    threshold: float = 1e-3,
    cluster: "SimCluster | None" = None,
    config: "DriverConfig | None" = None,
    seed: "int | np.random.Generator | None" = 0,
    sync_policy: "AdaptiveSyncPolicy | None" = None,
) -> KMeansResult:
    """Cluster ``points`` into ``k`` groups, General or Eager formulation.

    Eager mode repartitions the points every 5 global iterations and
    adds the oscillation stopping condition (see
    :class:`KMeansBlockSpec`); general mode does neither.
    """
    cfg = config if config is not None else DriverConfig(mode=mode)
    spec = _kmeans_block_spec(points, k, num_partitions=num_partitions,
                              threshold=threshold, seed=seed, cfg=cfg)
    res = IterationLoop(BlockBackend(spec, cluster=cluster), cfg,
                        sync_policy=sync_policy).run()
    return KMeansResult(centroids=np.asarray(res.state),
                        global_iters=res.global_iters,
                        converged=res.converged, sim_time=res.sim_time,
                        result=res)


def _kmeans_block_spec(points, k, *, num_partitions, threshold,
                       seed, cfg) -> KMeansBlockSpec:
    return KMeansBlockSpec(
        points, k,
        num_partitions=num_partitions,
        threshold=threshold,
        reshuffle_every=(5 if cfg.mode == "eager" else 0),
        oscillation_detection=(cfg.mode == "eager"),
        seed=seed,
    )


def kmeans_spec(
    points: np.ndarray,
    k: int,
    *,
    mode: str = "eager",
    num_partitions: int = 52,
    threshold: float = 1e-3,
    seed: "int | np.random.Generator | None" = 0,
    name: "str | None" = None,
) -> "JobSpec":
    """A submittable K-Means job for :meth:`~repro.core.Session.submit`.

    Same job :func:`kmeans` runs privately (with its default driver
    configuration for ``mode``), as a
    :class:`~repro.core.session.JobSpec`; the final centroids are
    ``np.asarray(handle.result.state)``.
    """
    from repro.core.session import JobSpec

    cfg = DriverConfig(mode=mode)
    return JobSpec(
        name=name if name is not None else "kmeans",
        config=cfg,
        make_backend=lambda session: BlockBackend(
            _kmeans_block_spec(points, k, num_partitions=num_partitions,
                               threshold=threshold, seed=seed, cfg=cfg),
            cluster=session.cluster),
    )


def kmeans_reference(points: np.ndarray, k: int, *, threshold: float = 1e-3,
                     max_iters: int = 1000,
                     seed: "int | np.random.Generator | None" = 0) -> np.ndarray:
    """Independent oracle: plain serial Lloyd's algorithm."""
    points = np.asarray(points, dtype=np.float64)
    rng = as_rng(seed)
    idx = rng.choice(len(points), size=k, replace=False)
    centroids = points[idx].copy()
    for _ in range(max_iters):
        assignment = assign_points(points, centroids)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignment, points)
        counts = np.bincount(assignment, minlength=k).astype(np.float64)
        new_centroids = centroids.copy()
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        shift = float(np.linalg.norm(new_centroids - centroids, axis=1).max())
        centroids = new_centroids
        if shift < threshold:
            break
    return centroids
