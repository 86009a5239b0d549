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

Lloyd's step is written once, :func:`lloyd_partials`: an eager
``local_solve`` calls it for its one part every local iteration, and a
general round (:meth:`KMeansBlockSpec.general_round`) calls it for
groups of whole parts at once, each part's partials bitwise what its
own solve computes (``docs/local_loop.md``, "A general round is one
sweep").
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    BlockBackend,
    BlockSpec,
    CentroidShiftCriterion,
    DriverConfig,
    LocalSolveReport,
)
from repro.util import as_rng

__all__ = [
    "KMeansBlockSpec",
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


#: A general round's (point, feature) cells per :func:`lloyd_partials`
#: call: parts are gathered and summed in groups of about this many, so
#: its temporaries stay near 512 KiB each, not d times the points.
_GROUP_CELLS = 1 << 16


def lloyd_partials(pts: np.ndarray, ends: "list[int]",
                   centroids: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """One Lloyd step's partials for parts laid end to end, part ``p``
    the rows ``pts[ends[p-1]:ends[p]]``: ``(sums, counts)``, shaped
    ``(P, k, d)`` and ``(P, k)``, part ``p``'s per-centroid feature
    sums and point counts, each point assigned to its closest centroid
    as :func:`assign_points` assigns it.

    Bitwise the per-part arithmetic whatever ``P`` is: each part's
    distances are its own ``matmul`` calls, cut as ``assign_points``
    cuts them, so no row's bits depend on how BLAS tiles the rows of
    other parts; the sums are ONE flat ``bincount`` over ``(part,
    centroid, feature)`` cells, and a cell adds its part's points one by
    one in point order from 0.0, as a per-part ``np.add.at(sums,
    assignment, pts)`` does, without that call's generic slow path."""
    k, d = centroids.shape
    dist = np.empty((len(pts), k))
    block = max(1, 2_000_000 // k)
    start = 0
    for end in ends:
        for lo in range(start, end, block):
            hi = min(lo + block, end)
            np.matmul(pts[lo:hi], centroids.T, out=dist[lo:hi])
        start = end
    dist *= -2.0
    dist += (centroids ** 2).sum(axis=1)
    cell = dist.argmin(axis=1)
    if len(ends) > 1:
        cell += np.repeat(np.arange(0, len(ends) * k, k), np.diff(ends, prepend=0))
    sums = np.bincount(((cell * d)[:, None] + np.arange(d)).ravel(),
                       weights=pts.ravel(), minlength=len(ends) * k * d)
    counts = np.bincount(cell, minlength=len(ends) * k).astype(np.float64)
    return sums.reshape(len(ends), k, d), counts.reshape(len(ends), k)


def sse(points: np.ndarray, centroids: np.ndarray) -> float:
    """Within-cluster sum of squared errors (the K-Means objective)."""
    points = np.asarray(points, dtype=np.float64)
    assignment = assign_points(points, centroids)
    diffs = points - np.asarray(centroids)[assignment]
    return float((diffs ** 2).sum())


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
        self._draws: "dict[int, list]" = {}
        self._parts = self._epoch_parts(0)

    def _epoch_parts(self, epoch: int) -> list:
        """The ``num_parts`` roughly equal point subsets of reshuffle
        epoch ``epoch``, shuffled the first time the epoch is asked for
        and kept, so a rollback's replay reuses the draw."""
        parts = self._draws.get(epoch)
        if parts is None:
            perm = self._rng.permutation(len(self.points))
            parts = self._draws[epoch] = np.array_split(perm, self.num_parts)
        return parts

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
        self._draws.clear()
        self._parts = self._epoch_parts(0)
        return self.points[idx].copy()

    def on_global_iteration(self, iteration: int, state):
        """Yom-Tov & Slonim: repartition the points every few iterations
        so gmaps do not repeatedly cluster the same subsets (§V-D).

        Iteration ``i`` uses the subsets of epoch ``i // reshuffle_every``,
        each drawn once, in epoch order; a checkpoint rollback that calls
        the hook again for a replayed round gets that round's subsets."""
        if self.reshuffle_every:
            self._parts = self._epoch_parts(iteration // self.reshuffle_every)
        return None

    def local_solve(self, part_id: int, state: np.ndarray, *,
                    max_local_iters: int) -> LocalSolveReport:
        if max_local_iters < 1:
            raise ValueError("max_local_iters must be >= 1")
        pts = self.points[self._parts[part_id]]
        centroids = np.asarray(state, dtype=np.float64).copy()
        per_iter_ops: list[float] = []
        iters = 0
        while iters < max_local_iters:
            (sums,), (counts,) = lloyd_partials(pts, [len(pts)], centroids)
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

    def general_round(self, state: np.ndarray) -> "list[LocalSolveReport]":
        """One Lloyd step of every part against the same centroids: the
        parts' points gathered and summed a group of parts at a time by
        :func:`lloyd_partials`, each report equal to ``local_solve(p,
        state, max_local_iters=1)`` field for field."""
        centroids = np.asarray(state, dtype=np.float64)
        d = self.points.shape[1]
        shuffle_bytes = self.k * (d + 1) * 8
        reports: "list[LocalSolveReport]" = []
        first = rows = 0
        for p, idx in enumerate(self._parts):
            rows += len(idx)
            if rows * d < _GROUP_CELLS and p + 1 < self.num_parts:
                continue
            group = self._parts[first: p + 1]
            sizes = [len(i) for i in group]
            sums, counts = lloyd_partials(
                self.points[np.concatenate(group)], np.cumsum(sizes).tolist(),
                centroids)
            reports += [LocalSolveReport(
                partition=first + i, updates=(sums[i], counts[i]),
                local_iters=1, per_iter_ops=[float(n + self.k)],
                shuffle_bytes=shuffle_bytes) for i, n in enumerate(sizes)]
            first, rows = p + 1, 0
        return reports

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
# The job description
# ----------------------------------------------------------------------

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
    """Cluster ``points`` into ``k`` groups, General or Eager
    formulation, as a :class:`~repro.core.session.JobSpec`:
    ``.run(cluster)`` runs it alone, :meth:`~repro.core.Session.submit`
    schedules it with others.  The final centroids are
    ``np.asarray(result.state)``.

    Eager mode repartitions the points every 5 global iterations and
    adds the oscillation stopping condition (see
    :class:`KMeansBlockSpec`); general mode does neither.  Another
    driver configuration or a sync policy is set on the returned spec's
    ``config`` / ``sync_policy``.
    """
    from repro.core.session import JobSpec

    eager = mode == "eager"
    return JobSpec(
        name=name if name is not None else "kmeans",
        config=DriverConfig(mode=mode),
        make_backend=lambda cluster: BlockBackend(
            KMeansBlockSpec(points, k, num_partitions=num_partitions,
                            threshold=threshold,
                            reshuffle_every=5 if eager else 0,
                            oscillation_detection=eager, seed=seed),
            cluster=cluster),
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
