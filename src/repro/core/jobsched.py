"""Multi-job scheduling: many iterative jobs, one shared cluster.

The paper's two-level scheme assumes a whole cluster per iterative job;
real clusters multiplex many.  The unified loop makes multiplexing
expressible: every job is an :class:`~repro.core.loop.IterationLoop`
stepped one global round at a time, so a scheduler can interleave the
``step`` calls of many jobs on one shared
:class:`~repro.cluster.SimCluster` clock.

:class:`SessionScheduler` drives all admitted jobs to convergence under
a pluggable :class:`SchedulingPolicy`:

* :class:`FifoPolicy` — Hadoop's default: strictly one job at a time,
  in priority-then-submission order, holding the whole cluster.
* :class:`RoundRobinPolicy` — time-slicing: jobs take turns, one global
  round per turn, each round on the full cluster.
* :class:`FairSharePolicy` — space-sharing, the Hadoop Fair Scheduler
  discipline: every unfinished job runs one round *concurrently* on an
  equal ``1/k`` share of the slots.

Concurrency on the single simulated timeline is modelled per scheduling
step: each job in the step's batch runs its round from the same start
clock (the clock is rewound between batch members), and the step
advances the shared clock by the *slowest* member's duration — exactly
the semantics of independent jobs running side by side.  Trace events
of concurrent rounds therefore overlap, and each lands under its own
job-prefixed label (see
:class:`~repro.cluster.accountant.RoundAccountant`).

Because jobs share nothing but the clock, a job's iterates, residuals
and local-iteration counts are identical to a solo run on a private
cluster — only the simulated timestamps differ (pinned by the
interleaving-invariance tests).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence, TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cluster.accountant import RoundAccountant
    from repro.cluster.cluster import SimCluster
    from repro.core.loop import IterationLoop, IterativeResult

__all__ = [
    "RoundShare",
    "JobHandle",
    "SchedulingPolicy",
    "FifoPolicy",
    "RoundRobinPolicy",
    "FairSharePolicy",
    "POLICIES",
    "make_policy",
    "SessionScheduler",
]


@dataclass(frozen=True)
class RoundShare:
    """Contention record for one of a job's global rounds."""

    #: The job-local iteration index of the round.
    iteration: int
    #: Shared-cluster clock when the round began.
    start: float
    #: Clock after the round's own charges (before other batch members).
    end: float
    #: Fraction of the cluster's slots the job held for the round.
    slot_share: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class JobHandle:
    """One submitted job: its loop, lifecycle, and contention metrics.

    Returned by :meth:`~repro.core.session.Session.submit`; the
    scheduler mutates it as rounds run.  All timestamps are shared
    simulated-cluster clock readings (0.0 without a cluster).

    Attributes
    ----------
    status:
        ``"queued"`` -> ``"running"`` -> ``"done"`` (or ``"failed"``).
    result:
        The job's own :class:`~repro.core.loop.IterativeResult` once
        ``status == "done"`` (``sim_time`` there is the job's *busy*
        seconds, not wall-clock on the shared timeline).
    round_shares:
        One :class:`RoundShare` per executed round — the slot share the
        scheduler granted and when the round ran.
    accountant:
        The job's private :class:`~repro.cluster.accountant.RoundAccountant`
        over the shared cluster; ``accountant.charged`` is the audited
        per-job cost split.
    """

    def __init__(self, *, job_id: int, name: str, priority: int,
                 loop: "IterationLoop", accountant: "RoundAccountant",
                 submitted_at: float) -> None:
        self.job_id = job_id
        self.name = name
        self.priority = priority
        self.loop = loop
        self.accountant = accountant
        self.submitted_at = submitted_at
        self.status = "queued"
        self.started_at: "float | None" = None
        self.finished_at: "float | None" = None
        self.result: "IterativeResult | None" = None
        self.round_shares: "list[RoundShare]" = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"JobHandle(id={self.job_id}, name={self.name!r}, "
                f"status={self.status!r}, rounds={self.rounds})")

    # -- lifecycle ------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.status == "done"

    @property
    def rounds(self) -> int:
        """Global rounds executed so far."""
        return self.loop.global_iters

    # -- contention metrics --------------------------------------------
    @property
    def queue_wait(self) -> float:
        """Simulated seconds between submission and the first round."""
        if self.started_at is None:
            return 0.0
        return self.started_at - self.submitted_at

    @property
    def busy_seconds(self) -> float:
        """Simulated seconds this job's own rounds took."""
        return sum(r.seconds for r in self.round_shares)

    @property
    def makespan(self) -> float:
        """Submission-to-completion span on the shared timeline."""
        if self.finished_at is None:
            return 0.0
        return self.finished_at - self.submitted_at

    @property
    def slot_shares(self) -> "list[float]":
        """Slot share granted per round (the contention profile)."""
        return [r.slot_share for r in self.round_shares]


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------

class SchedulingPolicy(abc.ABC):
    """Decides, each scheduling step, which jobs run one round and on
    what fraction of the cluster's slots."""

    name: str = "?"

    @abc.abstractmethod
    def next_batch(self, pending: "Sequence[JobHandle]") -> "list[JobHandle]":
        """Jobs that run one global round each this step, concurrently.

        ``pending`` holds every admitted-but-unfinished job.  Returning
        more than one job space-shares the cluster for the step;
        returning one time-slices it; returning ``[]`` stops the
        scheduler (only meaningful when ``pending`` is empty).
        """

    def slot_share(self, batch_size: int) -> float:
        """Slot fraction granted to each job of a batch (default: all)."""
        return 1.0


def _submission_order(jobs: "Sequence[JobHandle]") -> "list[JobHandle]":
    """Priority first (higher runs earlier), then submission order."""
    return sorted(jobs, key=lambda j: (-j.priority, j.job_id))


class FifoPolicy(SchedulingPolicy):
    """One job at a time, to convergence, in priority/submission order."""

    name = "fifo"

    def next_batch(self, pending):
        ordered = _submission_order(pending)
        return ordered[:1]


class RoundRobinPolicy(SchedulingPolicy):
    """Time-slicing: pending jobs take turns, one round per turn."""

    name = "round-robin"

    def __init__(self) -> None:
        self._last_id = -1

    def next_batch(self, pending):
        if not pending:
            return []
        by_id = sorted(pending, key=lambda j: j.job_id)
        nxt = next((j for j in by_id if j.job_id > self._last_id), by_id[0])
        self._last_id = nxt.job_id
        return [nxt]


class FairSharePolicy(SchedulingPolicy):
    """Space-sharing: every pending job runs concurrently on ``1/k`` of
    the slots (the Hadoop Fair Scheduler discipline).  Shares grow as
    jobs finish and leave the cluster."""

    name = "fair"

    def next_batch(self, pending):
        return _submission_order(pending)

    def slot_share(self, batch_size: int) -> float:
        return 1.0 / max(1, batch_size)


POLICIES = {
    "fifo": FifoPolicy,
    "rr": RoundRobinPolicy,
    "round-robin": RoundRobinPolicy,
    "fair": FairSharePolicy,
    "fair-share": FairSharePolicy,
}


def make_policy(policy: "str | SchedulingPolicy") -> SchedulingPolicy:
    """Resolve a policy name (``fifo`` / ``rr`` / ``fair``) or pass an
    instance through."""
    if isinstance(policy, SchedulingPolicy):
        return policy
    try:
        return POLICIES[policy]()
    except KeyError:
        raise ValueError(
            f"unknown scheduling policy {policy!r}; "
            f"expected one of {sorted(set(POLICIES))}"
        ) from None


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------

class SessionScheduler:
    """Drives admitted jobs to convergence by interleaving their rounds.

    One scheduling :meth:`step`: ask the policy for a batch, run one
    global round of every batch member from the same start clock on the
    policy's slot share, then advance the shared clock by the slowest
    member (concurrent semantics).  :meth:`run` steps until no job is
    pending.

    The scheduler owns no cluster or runtime — the
    :class:`~repro.core.session.Session` facade does; this class only
    needs the cluster's clock to rewind/advance between batch members.
    """

    def __init__(self, policy: "str | SchedulingPolicy" = "fifo",
                 cluster: "SimCluster | None" = None) -> None:
        self.policy = make_policy(policy)
        self.cluster = cluster
        self.jobs: "list[JobHandle]" = []

    # -- admission ------------------------------------------------------
    def admit(self, handle: JobHandle) -> JobHandle:
        self.jobs.append(handle)
        return handle

    @property
    def pending(self) -> "list[JobHandle]":
        """Admitted jobs that still have rounds to run."""
        return [j for j in self.jobs if j.status in ("queued", "running")]

    # -- clock plumbing -------------------------------------------------
    @property
    def clock(self) -> float:
        """Current shared simulated time (0.0 without a cluster)."""
        return self.cluster.clock if self.cluster is not None else 0.0

    def _clock(self) -> float:
        return self.clock

    def _set_clock(self, value: float) -> None:
        if self.cluster is not None:
            self.cluster.clock = value

    # -- driving --------------------------------------------------------
    def step(self) -> bool:
        """Run one scheduling step; returns False when nothing is left."""
        pending = self.pending
        if not pending:
            return False
        batch = self.policy.next_batch(pending)
        if not batch:
            return False
        share = self.policy.slot_share(len(batch))
        start = self._clock()
        durations = []
        for job in batch:
            self._set_clock(start)
            self._run_one_round(job, share, start)
            durations.append(self._clock() - start)
        # Concurrent batch: the step costs its slowest member.
        self._set_clock(start + max(durations))
        return True

    def _run_one_round(self, job: JobHandle, share: float,
                       start: float) -> None:
        loop = job.loop
        try:
            if not loop.started:
                loop.start()
                job.status = "running"
                job.started_at = start
            job.accountant.slot_share = share
            loop.step()
            end = self._clock()
            job.round_shares.append(RoundShare(
                iteration=loop.global_iters - 1, start=start, end=end,
                slot_share=share))
            if loop.finished:
                job.result = loop.finish()
                job.status = "done"
                job.finished_at = end
        except BaseException:
            job.status = "failed"
            loop.close()
            raise

    def run(self) -> "list[JobHandle]":
        """Step until every admitted job has finished."""
        while self.step():
            pass
        return list(self.jobs)

    # -- aggregate metrics ---------------------------------------------
    @property
    def finished_jobs(self) -> "list[JobHandle]":
        return [j for j in self.jobs if j.done]

    def makespan(self) -> float:
        """First submission to last completion on the shared timeline."""
        done = self.finished_jobs
        if not done:
            return 0.0
        return (max(j.finished_at for j in done)
                - min(j.submitted_at for j in done))

    def mean_latency(self) -> float:
        """Mean submission-to-completion latency over finished jobs."""
        done = self.finished_jobs
        if not done:
            return 0.0
        return sum(j.makespan for j in done) / len(done)
