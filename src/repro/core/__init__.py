"""The paper's contribution: partial synchronization + eager scheduling.

Public surface:

* :class:`~repro.core.session.Session` — **the way to run iterative
  jobs**: owns one shared :class:`~repro.cluster.SimCluster` and a
  persistent engine runtime; ``session.submit(spec_or_backend)``
  registers jobs (:class:`~repro.core.session.JobSpec` from the app
  ``*_spec`` factories, or a bare backend) and ``session.run()`` drives
  them all to convergence under a pluggable scheduling policy
  (FIFO / round-robin / fair-share, :mod:`repro.core.jobsched`), with
  per-job results and contention metrics on each
  :class:`~repro.core.jobsched.JobHandle`.
* :class:`~repro.core.loop.IterationLoop` — the single outer fixed-point
  loop underneath, parameterized by an
  :class:`~repro.core.loop.IterationBackend` (engine / block /
  hierarchical) and an optional
  :class:`~repro.core.loop.AdaptiveSyncPolicy`; re-entrant at round
  granularity so sessions can interleave many jobs on one clock.
* :class:`~repro.core.api.AsyncMapReduceSpec` — the §IV API
  (``lmap``/``lreduce``/``greduce`` + generated ``gmap``) running on the
  real MapReduce engine via an :class:`~repro.core.loop.EngineBackend`.
* :class:`~repro.core.api.BlockSpec` — the vectorised per-partition
  variant driven by a :class:`~repro.core.loop.BlockBackend`.
* :class:`~repro.core.config.DriverConfig` with the two canonical
  configurations :data:`~repro.core.config.GENERAL` (baseline) and
  :data:`~repro.core.config.EAGER` (partial sync + eager scheduling).
* :class:`~repro.core.convergence.CentroidShiftCriterion` — K-Means'
  centroid-shift stopping rule with oscillation detection.
"""

from repro.core.api import AsyncMapReduceSpec, BlockSpec, LocalSolveReport
from repro.core.async_backend import (
    AsyncBackend,
    DivergenceDetector,
    resolve_block_backend,
)
from repro.core.autotune import AutotuneReport, ProbeResult, autotune_partitions
from repro.core.config import DriverConfig, EAGER, GENERAL
from repro.core.convergence import CentroidShiftCriterion
from repro.core.emitter import LocalMapContext, LocalReduceContext
from repro.core.gmap import GmapFunction, GreduceFunction
from repro.core.hierarchy import make_racks
from repro.core.jobsched import (
    FairSharePolicy,
    FifoPolicy,
    JobHandle,
    RoundRobinPolicy,
    RoundShare,
    SchedulingPolicy,
    make_policy,
)
from repro.core.localmr import (
    LocalRunResult,
    per_record,
    run_local_block,
    run_local_mapreduce,
)
from repro.core.loop import (
    AdaptiveSyncPolicy,
    BlockBackend,
    EngineBackend,
    HierarchicalBackend,
    IterationBackend,
    IterationLoop,
    IterativeResult,
    RoundOutcome,
    RoundRecord,
)
from repro.core.session import JobSpec, Session

__all__ = [
    "Session",
    "JobSpec",
    "JobHandle",
    "RoundShare",
    "SchedulingPolicy",
    "FifoPolicy",
    "RoundRobinPolicy",
    "FairSharePolicy",
    "make_policy",
    "AsyncMapReduceSpec",
    "BlockSpec",
    "LocalSolveReport",
    "DriverConfig",
    "GENERAL",
    "EAGER",
    "CentroidShiftCriterion",
    "IterationLoop",
    "IterationBackend",
    "EngineBackend",
    "BlockBackend",
    "HierarchicalBackend",
    "AsyncBackend",
    "DivergenceDetector",
    "resolve_block_backend",
    "AdaptiveSyncPolicy",
    "RoundOutcome",
    "IterativeResult",
    "RoundRecord",
    "make_racks",
    "autotune_partitions",
    "AutotuneReport",
    "ProbeResult",
    "LocalMapContext",
    "LocalReduceContext",
    "GmapFunction",
    "GreduceFunction",
    "LocalRunResult",
    "run_local_mapreduce",
    "run_local_block",
    "per_record",
]
