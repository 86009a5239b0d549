"""The Session API: submit many iterative jobs to one shared cluster.

This is the public face of multi-job scheduling (see
:mod:`repro.core.jobsched` for the scheduler itself).  A
:class:`Session` owns the shared :class:`~repro.cluster.SimCluster` and
one persistent :class:`~repro.engine.MapReduceRuntime` (lazily built,
worker pool reused by every engine-path job), and
:meth:`Session.submit` registers work without running it:

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
timeline.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable

from repro.cluster.accountant import RoundAccountant
from repro.cluster.statestore import StateStore, resolve_state_store
from repro.core.config import DriverConfig
from repro.core.jobsched import JobHandle, SchedulingPolicy, SessionScheduler
from repro.core.loop import AdaptiveSyncPolicy, IterationBackend, IterationLoop

__all__ = ["JobSpec", "Session", "JobHandle"]


@dataclass
class JobSpec:
    """A submittable description of one iterative job.

    Produced by the application factories (``pagerank_spec`` et al.) so
    apps describe work instead of running it.  ``make_backend`` receives
    the session and builds the job's
    :class:`~repro.core.loop.IterationBackend` against the session's
    shared cluster/runtime.
    """

    name: str
    make_backend: "Callable[[Session], IterationBackend]"
    config: DriverConfig
    sync_policy: "AdaptiveSyncPolicy | None" = None


class Session:
    """Owns one shared cluster + runtime and schedules jobs onto them.

    Parameters
    ----------
    cluster:
        The shared :class:`~repro.cluster.SimCluster` every job charges
        (``None`` runs jobs without simulated time — iterates are still
        exact, all timestamps 0).
    runtime:
        The shared persistent :class:`~repro.engine.MapReduceRuntime`
        for engine-path jobs.  ``None`` builds a serial runtime over
        ``cluster`` lazily on first use; a session-built runtime is
        closed by :meth:`close`, a caller-supplied one is left open.
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
        carrying an explicit instance/factory keeps it.

    Use as a context manager to release the runtime's worker pool::

        with Session(cluster=SimCluster(), policy="fair") as s:
            handles = [s.submit(spec) for spec in specs]
            s.run()
    """

    def __init__(self, *, cluster=None, runtime=None,
                 policy: "str | SchedulingPolicy" = "fifo",
                 state_store: "StateStore | None" = None) -> None:
        self.cluster = cluster
        self._runtime = runtime
        self._owns_runtime = False
        self.scheduler = SessionScheduler(policy, cluster=cluster)
        self._next_id = 0
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
            return resolve_state_store(spec, self.cluster)
        if self.state_store is not None:
            return self.state_store.bind(self.cluster)
        if self._dfs_store is None:
            self._dfs_store = resolve_state_store(spec, self.cluster)
        return self._dfs_store

    # -- shared resources ----------------------------------------------
    @property
    def runtime(self):
        """The shared engine runtime (lazily built over the cluster)."""
        if self._runtime is None:
            from repro.engine import MapReduceRuntime

            self._runtime = MapReduceRuntime("serial", cluster=self.cluster)
            self._owns_runtime = True
        return self._runtime

    @property
    def policy(self) -> SchedulingPolicy:
        return self.scheduler.policy

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
        job_id = self._next_id
        if isinstance(job, JobSpec):
            cfg = config if config is not None else job.config
            policy = sync_policy if sync_policy is not None else job.sync_policy
            jname = name if name is not None else job.name
            backend = job.make_backend(self)
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
                                      for j in self.scheduler.jobs):
            policy = copy.deepcopy(policy)
        self._next_id += 1
        accountant = RoundAccountant(self.cluster, cfg, job=jname,
                                     state_store=self._store_for(cfg))
        loop = IterationLoop(backend, cfg, sync_policy=policy,
                             accountant=accountant)
        handle = JobHandle(job_id=job_id, name=jname, priority=priority,
                           loop=loop, accountant=accountant,
                           submitted_at=self.scheduler.clock)
        return self.scheduler.admit(handle)

    # -- driving --------------------------------------------------------
    def step(self) -> bool:
        """Run one scheduling step; returns False when nothing pends."""
        return self.scheduler.step()

    def run(self) -> "list[JobHandle]":
        """Drive every admitted job to convergence; returns all handles."""
        return self.scheduler.run()

    # -- aggregate metrics ---------------------------------------------
    def makespan(self) -> float:
        """First submission to last completion on the shared timeline."""
        return self.scheduler.makespan()

    def mean_latency(self) -> float:
        """Mean per-job submission-to-completion latency."""
        return self.scheduler.mean_latency()

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Close unfinished job loops and any session-owned runtime."""
        for job in self.scheduler.pending:
            job.loop.close()
        if self._owns_runtime and self._runtime is not None:
            self._runtime.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
