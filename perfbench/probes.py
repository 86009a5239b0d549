"""Measurement from outside: delegating proxies and OS-level samplers.

Everything here wraps an object the benchmark itself constructs and
hands to ``repro`` — a map function, a spec, an engine runtime, a
simulated cluster, a state store — or reads the operating system's own
accounting.  No ``repro`` module is edited or monkey-patched; a traced
repetition simply runs with these stand-ins where an untraced one runs
with the plain objects.
"""

from __future__ import annotations

import dataclasses
import gc
import glob
import multiprocessing
import os
import resource
import signal
import time
from multiprocessing import resource_tracker
from typing import Any

from repro.cluster import OnlineStateStore, SimCluster

from perfbench.spans import Tracer

__all__ = [
    "MAP_BODY_NS",
    "TimedMap",
    "SpecProxy",
    "RuntimeStandIn",
    "TimedSimCluster",
    "TimedOnlineStateStore",
    "traced_instance",
    "wrap_method",
    "GcPauses",
    "busy_cores",
    "process_cpu_seconds",
    "worker_pids",
    "peak_rss_mb",
    "shm_prefix",
    "shm_segments",
    "stop_children",
]

#: Job counter carrying the user map bodies' wall time (ns), summed
#: over the job's map tasks — reported from inside the worker through
#: the task context, so it crosses the process pool with the result.
MAP_BODY_NS = "perfbench.map.body.ns"
#: Job counter prefix naming the worker pids that ran map tasks.
PID_PREFIX = "perfbench.pid."

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# Proxies around objects the benchmark passes in
# ----------------------------------------------------------------------

class TimedMap:
    """Engine ``map_fn`` wrapper: times the wrapped body per call and
    reports through ``ctx.incr`` (picklable; works under every
    executor)."""

    def __init__(self, fn: Any) -> None:
        self.fn = fn

    def __call__(self, key: Any, value: Any, ctx: Any) -> None:
        t0 = time.perf_counter_ns()
        self.fn(key, value, ctx)
        ctx.incr(MAP_BODY_NS, time.perf_counter_ns() - t0)
        ctx.incr(f"{PID_PREFIX}{os.getpid()}")


class SpecProxy:
    """Delegating proxy around an application spec.

    Methods named in ``timed`` (method name -> span name) record a
    span; every other public method is pre-bound to the inner object
    so per-record hot paths (``lmap``/``lreduce``) pay no proxy cost,
    and plain attributes fall through ``__getattr__``.
    """

    def __init__(self, inner: Any, tracer: Tracer,
                 timed: "dict[str, str]") -> None:
        self._inner = inner
        for name in dir(inner):
            if name.startswith("_"):
                continue
            attr = getattr(inner, name)
            if callable(attr):
                span = timed.get(name)
                self.__dict__[name] = (tracer.wrap(span, attr)
                                       if span is not None else attr)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class RuntimeStandIn:
    """Stands in for a :class:`~repro.engine.MapReduceRuntime`: times
    ``run``, swaps the job's map function for a :class:`TimedMap`, and
    keeps every round's counters plus the last round's inputs/outputs
    for the staged replay."""

    def __init__(self, runtime: Any, tracer: Tracer) -> None:
        self.runtime = runtime
        self.tracer = tracer
        #: One ``Counters.as_dict()`` per executed engine job (= round).
        self.round_counters: "list[dict]" = []
        #: ``(job, splits, JobResult)`` of the most recent round.
        self.captured: "tuple | None" = None

    @property
    def cluster(self) -> Any:
        return self.runtime.cluster

    @property
    def node_faults(self) -> Any:
        return self.runtime.node_faults

    def run(self, job: Any, splits: Any, **kwargs: Any) -> Any:
        timed = dataclasses.replace(job, map_fn=TimedMap(job.map_fn))
        self.tracer.begin("engine.runtime.run")
        try:
            result = self.runtime.run(timed, splits, **kwargs)
        finally:
            self.tracer.end()
        self.round_counters.append(result.counters.as_dict())
        self.captured = (job, splits, result)
        return result

    def close(self) -> None:
        self.runtime.close()


def _timing_subclass(base: type, spans: "dict[str, str]") -> type:
    """Subclass of ``base`` whose named public methods record a span on
    ``self.tracer`` and otherwise defer to ``base``."""

    def timed(name: str, span: str):
        inner = getattr(base, name)

        def method(self, *args: Any, **kwargs: Any) -> Any:
            self.tracer.begin(span)
            try:
                return inner(self, *args, **kwargs)
            finally:
                self.tracer.end()

        method.__name__ = name
        return method

    return type(f"Timed{base.__name__}", (base,),
                {name: timed(name, span) for name, span in spans.items()})


TimedSimCluster = _timing_subclass(SimCluster, {
    "run_map_phase": "cluster.cluster.phase",
    "run_reduce_phase": "cluster.cluster.phase",
    "charge_job_startup": "cluster.cluster.charge",
    "charge_shuffle": "cluster.cluster.charge",
    "charge_overlapped_shuffle": "cluster.cluster.charge",
    "charge_barrier": "cluster.cluster.charge",
    "charge_dfs_roundtrip": "cluster.cluster.charge",
    "charge_state_roundtrip": "cluster.cluster.charge",
    "charge_fixed": "cluster.cluster.charge",
})

TimedOnlineStateStore = _timing_subclass(OnlineStateStore, {
    "round_trip": "cluster.statestore.round_trip",
    "publish": "cluster.statestore.round_trip",
    "consume": "cluster.statestore.round_trip",
    "checkpoint": "cluster.statestore.checkpoint",
})


def traced_instance(cls: type, tracer: Tracer, *args: Any, **kwargs: Any) -> Any:
    """Construct a timing subclass and hand it its ``tracer`` (neither
    base class calls a timed method from ``__init__``)."""
    obj = cls(*args, **kwargs)
    obj.tracer = tracer
    return obj


def wrap_method(obj: Any, name: str, tracer: Tracer, span: str) -> None:
    """Shadow ``obj.name`` with a span-recording wrapper (instance
    attribute; the class is untouched)."""
    setattr(obj, name, tracer.wrap(span, getattr(obj, name)))


# ----------------------------------------------------------------------
# Interpreter and OS accounting
# ----------------------------------------------------------------------

class GcPauses:
    """Sums garbage-collector pause time while installed."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self._callback)


def _busy_jiffies() -> int:
    """Non-idle jiffies over all CPUs (``/proc/stat`` user, nice,
    system, irq, softirq and steal columns)."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return sum(fields[:3]) + sum(fields[5:8])


def busy_cores(interval: float = 0.5) -> float:
    """Cores kept busy by *other* processes while this one sleeps for
    ``interval`` seconds."""
    busy0 = _busy_jiffies()
    t0 = time.perf_counter()
    time.sleep(interval)
    return (_busy_jiffies() - busy0) / _CLK_TCK / (time.perf_counter() - t0)


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid`` so far (0.0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            # comm may contain spaces; fields after the closing paren.
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def worker_pids(counters: "dict[str, int]") -> "set[int]":
    """Pool worker pids named by :class:`TimedMap` in a job's counters
    (the driver's own pid — the serial executor — is excluded)."""
    pids = {int(name[len(PID_PREFIX):]) for name in counters
            if name.startswith(PID_PREFIX)}
    pids.discard(os.getpid())
    return pids


def peak_rss_mb() -> float:
    """Driver peak RSS plus the largest reaped child's, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def shm_prefix() -> str:
    """Name prefix of every engine segment this driver (or a worker on
    its behalf) creates: the engine's registry embeds the driver pid."""
    return f"reproshm-{os.getpid():x}-"


def shm_segments() -> "list[str]":
    """This driver's engine shared-memory segments still present."""
    return glob.glob(f"/dev/shm/{shm_prefix()}*")


def _wait_or_kill(pid: int, grace: float = 5.0) -> None:
    """Reap child ``pid``; SIGKILL it if it outlives ``grace`` seconds."""
    deadline = time.monotonic() + grace
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:
        pass        # already reaped


def stop_children() -> None:
    """End and reap every process this one started, so none outlives
    the run: pool workers a failed shutdown left behind, and the
    ``multiprocessing`` resource tracker the shm transport starts in
    the driver — it exits only when its pipe closes, which without this
    is *after* the driver has gone, unreaped."""
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = resource_tracker._resource_tracker
    fd, pid = tracker._fd, tracker._pid
    if pid is None:
        return
    tracker._fd = tracker._pid = None   # a later shm use starts a new one
    if fd is not None:
        os.close(fd)
    _wait_or_kill(pid)
