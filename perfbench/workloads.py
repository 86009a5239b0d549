"""The four workloads.

Each workload is one closed-loop job the runner repeats: ``setup``
builds inputs from the seed, constructs what the job needs, starts the
pool and runs one full job; ``run_job`` runs one more.  With a tracer,
``run_job`` builds the same job out of the timing stand-ins of
:mod:`perfbench.probes`; without one it uses the plain ``repro``
objects, so end-to-end numbers carry no measurement code at all.
``run_job`` only runs: every verification (``check``) and every count
read off the job's records (``counts``) happens after the clock stops.

Sizes are fixed here (not scaled by an environment variable): the work
per repetition is a constant of the benchmark.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.apps import (
    PageRankKVSpec,
    SsspKVSpec,
    kmeans_spec,
    pagerank_reference,
    pagerank_spec,
    sssp_reference,
    sssp_spec,
)
from repro.cluster import EC2_DEFAULTS, OnlineStateStore, SimCluster, ec2_nodes
from repro.core import (
    AsyncBackend,
    DriverConfig,
    EngineBackend,
    IterationLoop,
    Session,
)
from repro.engine import (
    Job,
    JobConf,
    MapReduceRuntime,
    NodeFaultPlan,
    StragglerPlan,
)
from repro.engine.counters import TASK_RETRIES

from perfbench import checks
from perfbench.inputs import DAMPING, graph_input, kmeans_points, sweep_input
from perfbench.probes import (
    RuntimeStandIn,
    SpecProxy,
    TimedOnlineStateStore,
    TimedSimCluster,
    shm_segments,
    traced_instance,
    wrap_method,
)
from perfbench.spans import Tracer, durations
from perfbench.stats import median

__all__ = ["JobOutcome", "Workload", "WORKLOADS"]

#: PageRank tolerance is 1e-5 per step; iterates stopped there sit
#: within this of the tighter-converged reference.
PAGERANK_ATOL = 1e-3


@dataclass
class JobOutcome:
    """What one full job hands back to the runner."""

    #: Global synchronisations, summed over the job's sub-jobs.
    global_iters: int
    #: Simulated time-to-converge of the whole job.
    sim_seconds: float
    #: Output arrays (hashed outside the timed region).
    outputs: "list[np.ndarray]"
    #: Per simulated cluster the job used: the cluster and what ran on
    #: it (engine ``JobResult``s, ``IterativeResult``s or session
    #: ``JobHandle``s) — the raw material of ``check`` and ``counts``.
    charged: "list[tuple[SimCluster, list]]" = field(default_factory=list)
    #: Engine-path jobs under a tracer: the runtime stand-in.
    standin: "RuntimeStandIn | None" = None


class _NullTracer:
    """Lets benchmark-owned loops call begin/end unconditionally."""

    def begin(self, name: str) -> None:
        pass

    def end(self) -> None:
        pass


_NULL = _NullTracer()


def _new_cluster(tracer: "Tracer | None", *, speeds: "list[float] | None" = None,
                 **kwargs: Any) -> SimCluster:
    """A fresh Table I testbed (timed under a tracer); ``speeds`` is
    for ``sim-figures`` alone, see ``SimFigures.construct``."""
    nodes = ec2_nodes(speeds=speeds)
    if tracer is None:
        return SimCluster(nodes, EC2_DEFAULTS, **kwargs)
    return traced_instance(TimedSimCluster, tracer, nodes, EC2_DEFAULTS, **kwargs)


def _new_store(tracer: "Tracer | None", tablets: int, **kwargs: Any) -> OnlineStateStore:
    if tracer is None:
        return OnlineStateStore(tablets, **kwargs)
    return traced_instance(TimedOnlineStateStore, tracer, tablets, **kwargs)


def _instrument(handle: Any, tracer: Tracer) -> None:
    """Put spans around one submitted job's loop, backend and spec."""
    loop, backend = handle.loop, handle.loop.backend
    no_barrier = isinstance(backend, AsyncBackend) and backend.staleness != 0
    backend.spec = SpecProxy(backend.spec, tracer,
                             {"local_solve": "apps.local_solve"})
    wrap_method(backend, "run_round", tracer,
                "core.async_backend.round" if no_barrier else "core.loop.run_round")
    wrap_method(loop, "step", tracer, "core.loop.step")


def _drive(session: Session, tracer: "Tracer | None") -> None:
    """``Session.run`` spelled as its step loop, so a tracer can time
    each scheduling step."""
    t = tracer if tracer is not None else _NULL
    while True:
        t.begin("core.jobsched.step")
        try:
            if not session.step():
                return
        finally:
            t.end()


def _record_counts(histories: "list[list]") -> "dict[str, float]":
    """Per-layer counts read off the jobs' ``RoundRecord``s."""
    records = [r for h in histories for r in h]
    launched = sum(r.backups for r in records)
    return {
        "core.loop.local_iters": float(sum(sum(r.local_iters) for r in records)),
        "cluster.cluster.backups": float(launched),
        "cluster.cluster.backups_won_ratio": (
            sum(r.backups_won for r in records) / launched if launched else 0.0),
        "cluster.cluster.wasted_sim_s": math.fsum(r.wasted_seconds for r in records),
        "cluster.statestore.tablet_splits": float(sum(r.tablet_splits for r in records)),
        "cluster.workerpool.node_deaths": float(sum(r.node_deaths for r in records)),
        "cluster.workerpool.lost_map_outputs": float(
            sum(r.lost_map_outputs for r in records)),
        "cluster.workerpool.recovery_sim_s": math.fsum(
            r.recovery_seconds for r in records),
        "core.loop.rounds_replayed": float(sum(r.rounds_replayed for r in records)),
        "core.async_backend.max_staleness": float(
            max((r.max_staleness for r in records), default=0)),
    }


class Workload:
    """One named job shape; see the module docstring for the protocol."""

    name = "?"
    #: Measured repetitions at the benchmark's ``run_seconds``.
    reps = 7
    #: One line for ``BENCHMARK.json``: sizes, N, and why it was chosen.
    why = ""
    #: Size of the worker pool the job runs on (0 = no pool).
    pool_workers = 0

    def __init__(self) -> None:
        #: Per-layer numbers known once set-up is done (``graph.*``).
        self.setup_counts: "dict[str, float]" = {}

    def setup(self, seed: int) -> JobOutcome:
        raise NotImplementedError

    def reference(self) -> None:
        """Compute the oracles the checks compare against (once, after
        set-up, outside every clock)."""

    def run_job(self, tracer: "Tracer | None" = None) -> JobOutcome:
        raise NotImplementedError

    def check(self, outcome: JobOutcome) -> "list[str]":
        """Failures of one finished job (empty = it passed)."""
        raise NotImplementedError

    def counts(self, outcome: JobOutcome) -> "dict[str, float]":
        """Per-layer counts read off one finished job."""
        return {}

    def extra_layers(self) -> "dict[str, float]":
        """Per-layer numbers that need a measurement of their own, taken
        once per traced run before the repetitions."""
        return {}

    def close(self) -> None:
        """Stop whatever ``setup`` started."""


# ----------------------------------------------------------------------
# engine-sweep-proc
# ----------------------------------------------------------------------

class SweepMap:
    """Vectorised PageRank map: one ``emit_block`` of contributions and
    one of teleport mass per task (picklable: the pool ships it)."""

    def __init__(self, layout: list) -> None:
        self.layout = layout

    def __call__(self, part_id: int, ranks: np.ndarray, ctx: Any) -> None:
        src, dst, dinv, nodes = self.layout[part_id]
        ctx.emit_block(dst, ranks[src] * dinv)
        ctx.emit_block(nodes, np.full(len(nodes), 1.0 - DAMPING))


def ranks_from_output(result: Any, nodes: int) -> np.ndarray:
    """Driver-side state rebuild: scatter the reduce output block."""
    out = result.columnar_output
    ranks = np.zeros(nodes, dtype=np.float64)
    ranks[out.keys] = out.values.reshape(len(out.keys))
    return ranks


class EngineSweepProc(Workload):
    name = "engine-sweep-proc"
    reps = 9
    why = ("N=9 x 6 columnar PageRank sweeps, 250k nodes/1M edges, 4 maps->2 "
           "reducers, 2 procs + shm: repro.engine does the work (dispatch, pickling, "
           "shm, route+combine, seal); core/apps none")
    NODES, EDGES_PER_NODE, MAPS, REDUCERS, SWEEPS = 250_000, 4, 4, 2, 6
    pool_workers = 2
    #: Sweeps re-run on the serial executor for the bitwise check.
    SERIAL_PREFIX = 2

    def setup(self, seed: int) -> JobOutcome:
        t0 = time.perf_counter()
        self.inp = sweep_input(seed, nodes=self.NODES,
                               edges_per_node=self.EDGES_PER_NODE, parts=self.MAPS)
        self.setup_counts = {"graph.generate_s": time.perf_counter() - t0}
        self.job = Job(map_fn=SweepMap(self.inp.layout), reduce_fn="sum",
                       combine_fn="sum",
                       conf=JobConf(num_reducers=self.REDUCERS, columnar=True,
                                    name="sweep"))
        self.runtime = MapReduceRuntime("processes", workers=self.pool_workers)
        return self.run_job()

    def reference(self) -> None:
        self.oracle = checks.sweep_oracle(self.inp, self.SWEEPS)
        with MapReduceRuntime("serial") as serial:
            self.serial_prefix = self._sweeps(serial, None, self.SERIAL_PREFIX).outputs

    def _sweeps(self, runtime: MapReduceRuntime, tracer: "Tracer | None",
                sweeps: int) -> JobOutcome:
        t = tracer if tracer is not None else _NULL
        cluster = _new_cluster(tracer)
        runtime.cluster = cluster
        standin = RuntimeStandIn(runtime, tracer) if tracer is not None else None
        runner = standin if standin is not None else runtime
        ranks = np.ones(self.NODES, dtype=np.float64)
        per_sweep, results = [], []
        try:
            for _ in range(sweeps):
                t.begin("core.loop.step")
                res = runner.run(self.job, [[(p, ranks)] for p in range(self.MAPS)])
                t.begin("core.state.materialise")
                ranks = ranks_from_output(res, self.NODES)
                t.end()
                per_sweep.append(ranks)
                results.append(res)
                t.end()
        finally:
            runtime.cluster = None
        return JobOutcome(global_iters=sweeps, sim_seconds=cluster.clock,
                          outputs=per_sweep, charged=[(cluster, results)],
                          standin=standin)

    def run_job(self, tracer: "Tracer | None" = None) -> JobOutcome:
        return self._sweeps(self.runtime, tracer, self.SWEEPS)

    def check(self, outcome: JobOutcome) -> "list[str]":
        [(cluster, results)] = outcome.charged
        out = checks.check_cluster_clock(
            "sweep", math.fsum(r.sim_time_total for r in results), cluster.clock)
        retries = sum(r.counters.get(TASK_RETRIES) for r in results)
        if retries:
            out.append(f"sweep: {retries} unscripted task retries")
        leaked = len(shm_segments())
        if leaked:
            out.append(f"sweep: {leaked} leaked shm segments")
        out += checks.check_close("sweep ranks vs NumPy oracle",
                                  outcome.outputs[-1], self.oracle, rtol=1e-9)
        for i, want in enumerate(self.serial_prefix):
            out += checks.check_equal(f"sweep {i} vs serial executor",
                                      outcome.outputs[i], want)
        return out

    def counts(self, outcome: JobOutcome) -> "dict[str, float]":
        [(cluster, results)] = outcome.charged
        return {
            "engine.shm.leaked_segments": float(len(shm_segments())),
            "cluster.accountant.conservation_err": abs(
                math.fsum(r.sim_time_total for r in results) - cluster.clock),
        }

    def extra_layers(self) -> "dict[str, float]":
        """Round p50 on the pool over the serial executor's on the same
        inputs (base = serial), both traced the same way."""

        def round_p50(runtime: MapReduceRuntime) -> float:
            tracer = Tracer()
            self._sweeps(runtime, tracer, self.SWEEPS)
            return median(durations(tracer.spans, "core.loop.step"))

        with MapReduceRuntime("serial") as serial:
            base = round_p50(serial)
        return {"engine.runtime.proc_over_serial": round_p50(self.runtime) / base}

    def close(self) -> None:
        self.runtime.close()


# ----------------------------------------------------------------------
# Graph A workloads
# ----------------------------------------------------------------------

class _GraphWorkload(Workload):
    """Shared by the three Graph A workloads: seeded inputs, the two
    reference solutions, and the checks every iterative job gets."""

    #: Graph A scale and partition counts; each workload sets its own.
    SCALE: float
    KS: "tuple[int, ...]"

    def setup(self, seed: int) -> JobOutcome:
        self.inp = graph_input(seed, scale=self.SCALE, ks=self.KS)
        self.setup_counts = {
            "graph.generate_s": self.inp.generate_s,
            "graph.partition_s": self.inp.partition_s,
            "graph.cut_fraction": float(np.mean(list(self.inp.cut_fraction.values()))),
        }
        self.construct(seed)
        return self.run_job()

    def construct(self, seed: int) -> None:
        """Build whatever the job reuses across repetitions."""

    def reference(self) -> None:
        self.ranks_ref = pagerank_reference(self.inp.graph)
        self.dist_ref = sssp_reference(self.inp.weighted, source=self.inp.source)

    def check_jobs(self, named: "list[tuple[str, Any, Any]]") -> "list[str]":
        """For every ``(name, IterativeResult, output)``: converged, its
        rounds add up, and the output matches the app's reference."""
        out = []
        for name, result, output in named:
            out += checks.check_sim_job(name, result)
            if name.startswith("pagerank"):
                out += checks.check_close(f"{name} vs reference", output,
                                          self.ranks_ref, atol=PAGERANK_ATOL)
            elif name.startswith("sssp"):
                out += checks.check_equal(f"{name} vs Dijkstra", output, self.dist_ref)
            elif not np.all(np.isfinite(output)):
                out.append(f"{name}: non-finite centroids")
        return out


class KvEagerSerial(_GraphWorkload):
    name = "kv-eager-serial"
    reps = 7
    why = ("N=7 x PageRankKVSpec+SsspKVSpec eager, Graph A scale 0.004, 8 partitions, "
           "serial: core.gmap/localmr/emitter + apps lmap/lreduce do the work; engine "
           "object path, no pool/pickle/shm")
    SCALE, KS, REDUCERS = 0.004, (8,), 8

    def construct(self, seed: int) -> None:
        k = self.KS[0]
        self.specs = [
            ("pagerank", PageRankKVSpec(self.inp.graph, self.inp.parts[k])),
            ("sssp", SsspKVSpec(self.inp.weighted, self.inp.wparts[k],
                                source=self.inp.source)),
        ]

    def run_job(self, tracer: "Tracer | None" = None) -> JobOutcome:
        cluster = _new_cluster(tracer)
        runtime = MapReduceRuntime("serial", cluster=cluster)
        standin = RuntimeStandIn(runtime, tracer) if tracer is not None else None
        results = []
        for _name, spec in self.specs:
            if tracer is not None:
                spec = SpecProxy(spec, tracer, {
                    "partition_input": "core.state.materialise",
                    "state_from_output": "core.state.materialise"})
            backend = EngineBackend(spec, runtime=standin or runtime,
                                    num_reducers=self.REDUCERS, columnar=False)
            loop = IterationLoop(backend, DriverConfig(mode="eager"))
            if tracer is not None:
                wrap_method(backend, "run_round", tracer, "core.loop.run_round")
                wrap_method(loop, "step", tracer, "core.loop.step")
            results.append(loop.run())
        runtime.close()
        n = self.inp.graph.num_nodes
        outputs = [np.array([res.state[u][0] for u in range(n)], dtype=np.float64)
                   for res in results]
        return JobOutcome(
            global_iters=sum(res.global_iters for res in results),
            sim_seconds=cluster.clock, outputs=outputs,
            charged=[(cluster, results)], standin=standin)

    def check(self, outcome: JobOutcome) -> "list[str]":
        [(cluster, results)] = outcome.charged
        named = [(name, res, out) for (name, _), res, out
                 in zip(self.specs, results, outcome.outputs)]
        return self.check_jobs(named) + checks.check_cluster_clock(
            "kv", math.fsum(r.sim_time for r in results), cluster.clock)

    def counts(self, outcome: JobOutcome) -> "dict[str, float]":
        [(cluster, results)] = outcome.charged
        return {**_record_counts([r.history for r in results]),
                "cluster.accountant.conservation_err": abs(
                    math.fsum(r.sim_time for r in results) - cluster.clock)}


class SimFigures(_GraphWorkload):
    name = "sim-figures"
    reps = 7
    why = ("N=7 x one fair Session of 14 figure jobs (pagerank/sssp x general/eager x "
           "k=5,20,80 at scale 0.04; kmeans 8k pts): apps.local_solve, BlockBackend, "
           "jobsched, accountant, SimCluster; no engine")
    SCALE, KS = 0.04, (5, 20, 80)
    ROWS, CLUSTERS, KMEANS_PARTS, DELTA = 8_000, 8, 52, 1e-3

    def construct(self, seed: int) -> None:
        self.points = kmeans_points(seed, rows=self.ROWS)
        # The one departure from the Table I testbed, kept on purpose:
        # node speeds within +-1 % of nominal, drawn by the seed.  On
        # nominal nodes this workload's simulated time is the same
        # float for every seed (DFS state, LPT over an unchanged cost
        # multiset, makespan independent of submission order), and the
        # builder's driver refuses a benchmark whose time reads exactly
        # the same on every run.  Per seed it is still exact.
        self.speeds = list(1.0 + np.random.default_rng(seed).uniform(-0.01, 0.01, 8))

    def run_job(self, tracer: "Tracer | None" = None) -> JobOutcome:
        inp = self.inp
        cluster = _new_cluster(tracer, speeds=self.speeds)
        with Session(cluster=cluster, policy="fair") as session:
            handles = []
            for k in self.KS:
                for mode in ("general", "eager"):
                    handles.append(session.submit(pagerank_spec(
                        inp.graph, inp.parts[k], mode=mode,
                        name=f"pagerank-{mode}-{k}")))
                    handles.append(session.submit(sssp_spec(
                        inp.weighted, inp.wparts[k], source=inp.source, mode=mode,
                        name=f"sssp-{mode}-{k}")))
            for mode in ("general", "eager"):
                handles.append(session.submit(kmeans_spec(
                    self.points, self.CLUSTERS, mode=mode,
                    num_partitions=self.KMEANS_PARTS, threshold=self.DELTA,
                    seed=3, name=f"kmeans-{mode}")))
            if tracer is not None:
                for h in handles:
                    _instrument(h, tracer)
            _drive(session, tracer)
        return JobOutcome(
            global_iters=sum(h.result.global_iters for h in handles),
            sim_seconds=cluster.clock,
            outputs=[np.asarray(h.result.state) for h in handles],
            charged=[(cluster, handles)])

    def check(self, outcome: JobOutcome) -> "list[str]":
        [(cluster, handles)] = outcome.charged
        out = self.check_jobs([(h.name, h.result, o)
                               for h, o in zip(handles, outcome.outputs)])
        # Fair share runs the jobs side by side: the clock advances by
        # the last job's finish, and each job by its own busy time.
        out += checks.check_cluster_clock(
            "session makespan", max(h.finished_at for h in handles), cluster.clock)
        for h in handles:
            out += checks.check_cluster_clock(f"{h.name} busy", h.result.sim_time,
                                              h.busy_seconds)
        out += checks.check_slots(cluster, [h.name for h in handles])
        iters = {h.name: h.result.global_iters for h in handles}
        for name, eager in iters.items():
            if "-eager" in name and eager > iters[name.replace("-eager", "-general")]:
                out.append(f"{name}: eager took more global rounds than general")
        return out

    def counts(self, outcome: JobOutcome) -> "dict[str, float]":
        [(cluster, handles)] = outcome.charged
        return {**_record_counts([h.result.history for h in handles]),
                "cluster.accountant.conservation_err": abs(
                    max(h.finished_at for h in handles) - cluster.clock)}


@dataclass
class _FaultJob:
    """One of ``sim-faults``' back-to-back jobs."""

    name: str
    app: str                                        # "pagerank" | "sssp"
    tablets: int
    cluster: dict = field(default_factory=dict)     # SimCluster kwargs
    config: dict = field(default_factory=dict)      # DriverConfig kwargs
    store: dict = field(default_factory=dict)       # OnlineStateStore kwargs
    spec: dict = field(default_factory=dict)        # pagerank_spec/sssp_spec kwargs


class SimFaults(_GraphWorkload):
    name = "sim-faults"
    reps = 7
    why = ("N=7 x 7 jobs at scale 0.055, k=24: stragglers+speculation, node/rack "
           "kill + checkpoint rollback, async PageRank: workerpool, _speculate, "
           "_recover, statestore, async_backend run only here")
    SCALE, KS = 0.055, (24,)
    #: Jobs whose iterates must equal the failure-free twin's bit for bit.
    TWINNED = ("pagerank-straggler", "sssp-straggler", "pagerank-nodekill",
               "sssp-rackkill")

    def construct(self, seed: int) -> None:
        # Deaths land inside the map phase (job start-up is charged
        # 20 sim s first): tasks already finished on the node lose
        # their outputs, the ones still running are killed in flight.
        kill_node = NodeFaultPlan.kill_node(1, round=5, at_seconds=20.6, num_nodes=8)
        kill_rack = NodeFaultPlan.kill_rack(0, round=3, at_seconds=20.45, num_nodes=8,
                                            nodes_per_rack=4)
        slow = {"stragglers": StragglerPlan.slow_nodes({0: 4.0})}
        speculate = {"speculate": True}
        split = {"split_threshold": 256 * 1024}
        self.plan = [
            _FaultJob("pagerank-straggler", "pagerank", 8, cluster=slow,
                      config=speculate, store=split),
            _FaultJob("sssp-straggler", "sssp", 8, cluster=slow, config=speculate,
                      store=split),
            _FaultJob("pagerank-nodekill", "pagerank", 4,
                      cluster={"node_faults": kill_node},
                      config={"checkpoint_every": 4}),
            _FaultJob("sssp-rackkill", "sssp", 4, cluster={"node_faults": kill_rack},
                      config={"checkpoint_every": 2}),
            _FaultJob("pagerank-async2", "pagerank", 8,
                      spec={"backend": "async", "staleness": 2}),
            _FaultJob("pagerank-async1", "pagerank", 8,
                      spec={"backend": "async", "staleness": 1}),
            # One tablet per partition: with no staleness bound the round
            # count depends on which partitions share a tablet (134 or 139
            # under eight tablets at scale 0.06), which a relabelling seed would change.
            _FaultJob("pagerank-chaotic", "pagerank", self.KS[0],
                      spec={"backend": "async", "staleness": None}),
        ]

    def _run_one(self, tracer: "Tracer | None", job: _FaultJob
                 ) -> "tuple[SimCluster, Any]":
        """One job on its own cluster and store; ``(cluster, result)``."""
        inp, k = self.inp, self.KS[0]
        cluster = _new_cluster(tracer, **job.cluster)
        config = DriverConfig(mode="eager",
                              state_store=_new_store(tracer, job.tablets, **job.store),
                              **job.config)
        if job.app == "pagerank":
            spec = pagerank_spec(inp.graph, inp.parts[k], config=config,
                                 name=job.name, **job.spec)
        else:
            spec = sssp_spec(inp.weighted, inp.wparts[k], source=inp.source,
                             config=config, name=job.name, **job.spec)
        with Session(cluster=cluster, policy="fifo") as session:
            handle = session.submit(spec)
            if tracer is not None:
                _instrument(handle, tracer)
            _drive(session, tracer)
        return cluster, handle.result

    def reference(self) -> None:
        super().reference()
        # Failure-free twins: no plan, no speculation.
        self.twins = {
            app: np.asarray(
                self._run_one(None, _FaultJob(f"{app}-twin", app, 4))[1].state)
            for app in ("pagerank", "sssp")}

    def run_job(self, tracer: "Tracer | None" = None) -> JobOutcome:
        ran = [self._run_one(tracer, job) for job in self.plan]
        return JobOutcome(
            global_iters=sum(result.global_iters for _, result in ran),
            sim_seconds=math.fsum(cluster.clock for cluster, _ in ran),
            outputs=[np.asarray(result.state) for _, result in ran],
            charged=[(cluster, [result]) for cluster, result in ran])

    def check(self, outcome: JobOutcome) -> "list[str]":
        names = [job.name for job in self.plan]
        results = {name: result for name, (_, [result])
                   in zip(names, outcome.charged)}
        outputs = dict(zip(names, outcome.outputs))
        out = self.check_jobs([(n, results[n], outputs[n]) for n in names])
        for name, (cluster, _) in zip(names, outcome.charged):
            out += checks.check_cluster_clock(name, results[name].sim_time,
                                              cluster.clock)
            out += checks.check_slots(cluster, [name])
        for name in self.TWINNED:
            out += checks.check_equal(f"{name} vs failure-free twin", outputs[name],
                                      self.twins[name.split("-")[0]])

        def total(name: str, attr: str) -> float:
            return sum(getattr(r, attr) for r in results[name].history)

        if total("pagerank-nodekill", "node_deaths") != 1:
            out.append("pagerank-nodekill: expected exactly one node death")
        if total("sssp-rackkill", "node_deaths") != 4:
            out.append("sssp-rackkill: expected the rack's four node deaths")
        for name in ("pagerank-nodekill", "sssp-rackkill"):
            if total(name, "rounds_replayed") <= 0:
                out.append(f"{name}: no rounds replayed after the kill")
        if total("pagerank-straggler", "backups") <= 0:
            out.append("pagerank-straggler: no speculative backups launched")
        return out

    def counts(self, outcome: JobOutcome) -> "dict[str, float]":
        histories = [result.history for _, [result] in outcome.charged]
        out = _record_counts(histories)
        out["cluster.accountant.conservation_err"] = max(
            abs(result.sim_time - cluster.clock)
            for cluster, [result] in outcome.charged)
        out["cluster.statestore.bytes"] = float(sum(
            sum(r.state_partition_bytes) for h in histories for r in h))
        return out


WORKLOADS: "dict[str, type[Workload]]" = {
    cls.name: cls for cls in (EngineSweepProc, KvEagerSerial, SimFigures, SimFaults)
}
