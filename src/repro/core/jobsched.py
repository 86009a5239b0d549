"""Multi-job scheduling: many iterative jobs, one shared cluster.

The paper's two-level scheme assumes a whole cluster per iterative job;
real clusters multiplex many.  The unified loop makes multiplexing
expressible: every job is an :class:`~repro.core.loop.IterationLoop`
stepped one global round at a time, so a scheduler can interleave the
``step`` calls of many jobs on one shared
:class:`~repro.cluster.SimCluster` clock.

:class:`~repro.core.session.Session` drives all admitted jobs to
convergence under a pluggable :class:`SchedulingPolicy`:

* :class:`FifoPolicy` — Hadoop's default: strictly one job at a time,
  in priority-then-submission order, holding the whole cluster.
* :class:`RoundRobinPolicy` — time-slicing: jobs take turns, one global
  round per turn, each round on the full cluster.
* :class:`FairSharePolicy` — space-sharing, the Hadoop Fair Scheduler
  discipline: every unfinished job runs one round *concurrently* on an
  equal ``1/k`` share of the slots.

Concurrency on the single simulated timeline is modelled per scheduling
step: the step's batch is one fork of
:meth:`SimCluster.concurrently <repro.cluster.SimCluster.concurrently>`,
so every member runs its round from the same start clock on ``1/k`` of
the slots and bandwidth, and the step costs the *slowest* member —
exactly the semantics of independent jobs running side by side.  Trace
events of concurrent rounds therefore overlap, and each lands under its
own job-prefixed label (see
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
    #: Fraction of the cluster's slots the job held for the round
    #: (``1/len(batch)`` in a session without a cluster).
    slot_share: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class JobHandle:
    """One submitted job: its loop, lifecycle, and contention metrics.

    Returned by :meth:`~repro.core.session.Session.submit`; the
    session mutates it as rounds run.  All timestamps are shared
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
        over the shared cluster: its trace labels carry the job's name,
        and its per-round ledger feeds the job's round records.  The
        job's share of the clock is :attr:`busy_seconds`.
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
    """Decides, each scheduling step, which jobs run one round side by
    side; each holds an equal share of the cluster for it."""

    name: str = "?"

    @abc.abstractmethod
    def next_batch(self, pending: "Sequence[JobHandle]") -> "list[JobHandle]":
        """Jobs that run one global round each this step, concurrently.

        ``pending`` holds every admitted-but-unfinished job.  Returning
        more than one job space-shares the cluster for the step;
        returning one time-slices it; returning ``[]`` stops the
        session's step loop (only meaningful when ``pending`` is empty).
        """


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
