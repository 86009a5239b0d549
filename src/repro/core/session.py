"""The Session API: submit many iterative jobs to one shared cluster.

This is the public face of multi-job scheduling (see
:mod:`repro.core.jobsched` for the policies and the job handles).  A
:class:`Session` owns the shared :class:`~repro.cluster.SimCluster`,
one persistent :class:`~repro.engine.MapReduceRuntime` (lazily built,
worker pool reused by every engine-path job) and the step loop that
interleaves its jobs' rounds; :meth:`Session.submit` registers work
without running it:

>>> from repro.apps import pagerank_spec, sssp_spec
>>> session = Session(cluster=SimCluster(), policy="fair")
>>> pr = session.submit(pagerank_spec(g, part))
>>> sp = session.submit(sssp_spec(wg, wpart), priority=1)
>>> session.run()
>>> pr.result.converged, pr.makespan, pr.queue_wait
(True, ..., ...)

Jobs are submitted either as a :class:`JobSpec` (what the application
factories ``pagerank_spec`` / ``sssp_spec`` / ``kmeans_spec`` / ...
produce — a backend recipe plus its driver configuration) or as a bare
:class:`~repro.core.loop.IterationBackend` with an explicit config.
Each submission returns a :class:`~repro.core.jobsched.JobHandle` whose
``result`` carries the job's own
:class:`~repro.core.loop.IterativeResult` and whose contention metrics
(queue wait, per-round slot shares, makespan) come from the shared
timeline.  The same description runs alone with :meth:`JobSpec.run`:
``pagerank_spec(g, part).run(SimCluster())``.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from typing import Callable

from repro.cluster import SimCluster
from repro.cluster.accountant import RoundAccountant
from repro.cluster.statestore import StateStore, resolve_state_store
from repro.core.config import DriverConfig
from repro.core.jobsched import (
    JobHandle,
    RoundShare,
    SchedulingPolicy,
    make_policy,
)
from repro.core.loop import (
    AdaptiveSyncPolicy,
    IterationBackend,
    IterationLoop,
    IterativeResult,
)

__all__ = ["JobSpec", "Session", "JobHandle"]


@dataclass
class JobSpec:
    """The one description of an iterative job.

    Produced by the application factories (``pagerank_spec`` et al.):
    an app describes its work once, and the description runs alone
    (:meth:`run`) or together with others in a :class:`Session`
    (:meth:`Session.submit`).  ``make_backend`` receives the cluster the
    job charges (``None`` for none) and builds the job's
    :class:`~repro.core.loop.IterationBackend` on it.
    """

    name: str
    make_backend: "Callable[[SimCluster | None], IterationBackend]"
    config: DriverConfig
    sync_policy: "AdaptiveSyncPolicy | None" = None

    def run(self, cluster: "SimCluster | None" = None) -> IterativeResult:
        """Run the job alone to convergence on ``cluster`` (``None``
        runs it without simulated time).  Its accountant is private and
        unlabelled, as a solo :class:`~repro.core.loop.IterationLoop`
        builds it."""
        return IterationLoop(self.make_backend(cluster), self.config,
                             sync_policy=self.sync_policy).run()


class Session:
    """Owns one shared cluster + runtime and schedules jobs onto them.

    Parameters
    ----------
    cluster:
        The shared :class:`~repro.cluster.SimCluster` every job charges
        (``None`` runs jobs without simulated time — iterates are still
        exact, all timestamps 0).
    policy:
        Scheduling policy: ``"fifo"`` / ``"rr"`` / ``"fair"`` or a
        :class:`~repro.core.jobsched.SchedulingPolicy` instance.
    state_store:
        Optional shared :class:`~repro.cluster.statestore.StateStore`
        every job's inter-round state goes through — multi-job runs
        then contend on the same tablets, and the store's per-tablet
        load statistics aggregate across jobs.  ``None`` (default)
        resolves each job's ``config.state_store``: jobs on the default
        ``"dfs"`` share one DFS store per session, while a config
        carrying an explicit instance/factory keeps it.  The store is
        used as given; the session's cluster prices each charge.

    One scheduling :meth:`step` asks the policy for a batch and runs one
    global round of every batch member as one fork of the cluster's
    :meth:`~repro.cluster.SimCluster.concurrently`; :meth:`run` steps
    until no job is pending.  The session never moves the clock itself.

    Use as a context manager to release the runtime's worker pool::

        with Session(cluster=SimCluster(), policy="fair") as s:
            handles = [s.submit(spec) for spec in specs]
            s.run()
    """

    def __init__(self, *, cluster=None,
                 policy: "str | SchedulingPolicy" = "fifo",
                 state_store: "StateStore | None" = None) -> None:
        self.cluster = cluster
        self.policy = make_policy(policy)
        #: Every submitted job, in submission order.
        self.jobs: "list[JobHandle]" = []
        self._runtime = None
        if state_store is not None and not isinstance(state_store, StateStore):
            raise TypeError(
                f"state_store must be a StateStore instance or None, "
                f"got {type(state_store).__name__}")
        self.state_store = state_store
        #: The store jobs on the default ``"dfs"`` config share.
        self._dfs_store: "StateStore | None" = None

    def _store_for(self, config: DriverConfig) -> StateStore:
        """The state store a submitted job charges through.

        Explicit instances/factories in the job's config win; the
        default ``"dfs"`` resolves to the session-level override (if
        any) or to one session-shared DFS store, so every job submitted
        with the default config contends on the same store.
        """
        spec = config.state_store
        if not isinstance(spec, str):
            return resolve_state_store(spec)
        if self.state_store is not None:
            return self.state_store
        if self._dfs_store is None:
            self._dfs_store = resolve_state_store(spec)
        return self._dfs_store

    # -- shared resources ----------------------------------------------
    @property
    def runtime(self):
        """The shared serial engine runtime over the cluster, built on
        first use and closed by :meth:`close`."""
        if self._runtime is None:
            from repro.engine import MapReduceRuntime

            self._runtime = MapReduceRuntime("serial", cluster=self.cluster)
        return self._runtime

    def _clock(self) -> float:
        """Current shared simulated time (0.0 without a cluster)."""
        return self.cluster.clock if self.cluster is not None else 0.0

    @property
    def _pending(self) -> "list[JobHandle]":
        """Submitted jobs that still have rounds to run."""
        return [j for j in self.jobs if j.status in ("queued", "running")]

    # -- submission -----------------------------------------------------
    def submit(self, job: "JobSpec | IterationBackend",
               config: "DriverConfig | None" = None, *,
               priority: int = 0, name: "str | None" = None,
               sync_policy: "AdaptiveSyncPolicy | None" = None) -> JobHandle:
        """Register a job without running it; returns its handle.

        ``job`` is a :class:`JobSpec` (config/sync-policy default from
        the spec; keyword arguments override) or a bare backend (then
        ``config`` is required).  ``priority`` orders jobs under the
        ordering policies (higher runs earlier).  Drive the admitted
        jobs with :meth:`run` (or :meth:`step` for one scheduling step).
        """
        job_id = len(self.jobs)
        if isinstance(job, JobSpec):
            cfg = config if config is not None else job.config
            policy = sync_policy if sync_policy is not None else job.sync_policy
            jname = name if name is not None else job.name
            backend = job.make_backend(self.cluster)
        elif isinstance(job, IterationBackend):
            if config is None:
                raise ValueError(
                    "submitting a bare backend requires an explicit config "
                    "(JobSpecs carry their own)")
            cfg, policy, backend = config, sync_policy, job
            jname = name if name is not None else f"job{job_id}"
        else:
            raise TypeError(
                f"submit() takes a JobSpec or an IterationBackend, "
                f"got {type(job).__name__}")
        bcluster = backend.cluster
        if bcluster is not None and bcluster is not self.cluster:
            raise ValueError(
                "backend is attached to a different cluster than the "
                "session's — a session schedules jobs on ONE shared cluster")
        # An AdaptiveSyncPolicy is stateful per run; interleaved jobs
        # sharing one instance would reset and cross-feed each other's
        # budgets, so a policy already attached to another job of this
        # session is copied (each job observes only its own rounds).
        if policy is not None and any(policy is j.loop.sync_policy
                                      for j in self.jobs):
            policy = copy.deepcopy(policy)
        accountant = RoundAccountant(self.cluster, cfg, job=jname,
                                     state_store=self._store_for(cfg))
        loop = IterationLoop(backend, cfg, sync_policy=policy,
                             accountant=accountant)
        handle = JobHandle(job_id=job_id, name=jname, priority=priority,
                           loop=loop, accountant=accountant,
                           submitted_at=self._clock())
        self.jobs.append(handle)
        return handle

    # -- driving --------------------------------------------------------
    def step(self) -> bool:
        """Run one scheduling step; returns False when nothing pends."""
        pending = self._pending
        if not pending:
            return False
        batch = self.policy.next_batch(pending)
        if not batch:
            return False
        rounds = [functools.partial(self._run_one_round, job, len(batch))
                  for job in batch]
        if self.cluster is None:
            for run in rounds:
                run()
        else:
            self.cluster.concurrently(rounds)
        return True

    def _run_one_round(self, job: JobHandle, batch_size: int) -> None:
        loop = job.loop
        start = self._clock()
        share = (self.cluster.share if self.cluster is not None
                 else 1.0 / batch_size)
        try:
            if not loop.started:
                loop.start()
                job.status = "running"
                job.started_at = start
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
        """Drive every admitted job to convergence; returns all handles."""
        while self.step():
            pass
        return list(self.jobs)

    # -- aggregate metrics ---------------------------------------------
    def makespan(self) -> float:
        """First submission to last completion on the shared timeline."""
        done = [j for j in self.jobs if j.done]
        if not done:
            return 0.0
        return (max(j.finished_at for j in done)
                - min(j.submitted_at for j in done))

    def mean_latency(self) -> float:
        """Mean per-job submission-to-completion latency."""
        done = [j for j in self.jobs if j.done]
        if not done:
            return 0.0
        return sum(j.makespan for j in done) / len(done)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Close unfinished job loops and the session's runtime."""
        for job in self._pending:
            job.loop.close()
        if self._runtime is not None:
            self._runtime.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
