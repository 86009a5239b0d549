"""Tests for the Session/Job API (repro.core.session, repro.core.jobsched).

Covers: single-job equivalence with a private IterationLoop (session
overhead is zero), the interleaving-invariance guarantee (per-job round
records identical to sequential runs on private clusters — only the
simulated timestamps differ), the scheduling policies' contracts (FIFO
convoy, round-robin alternation, fair-share slot splitting), and per-job
cost attribution on the shared timeline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import kmeans_spec, pagerank_spec, sssp_spec
from repro.apps.pagerank import PageRankBlockSpec, PageRankKVSpec
from repro.apps.sssp import SsspBlockSpec
from repro.cluster import SimCluster
from repro.core import (
    AdaptiveSyncPolicy,
    BlockBackend,
    DriverConfig,
    EngineBackend,
    IterationLoop,
    JobSpec,
    Session,
    make_policy,
)
from repro.data import census_sample
from repro.engine import MapReduceRuntime
from repro.graph import (
    attach_random_weights,
    multilevel_partition,
    preferential_attachment,
)


@pytest.fixture(scope="module")
def workload():
    g = preferential_attachment(300, num_conn=3, locality_prob=0.92,
                                community_mean=40, seed=7)
    part = multilevel_partition(g, 4, seed=0)
    return g, part


@pytest.fixture(scope="module")
def weighted_workload(workload):
    g, _ = workload
    wg = attach_random_weights(g, low=1.0, high=10.0, seed=11)
    return wg, multilevel_partition(wg, 4, seed=0)


def _history_key(result):
    """The scheduling-invariant part of a run's round records."""
    return [(r.iteration, r.residual, r.local_iters, r.shuffle_bytes)
            for r in result.history]


# ----------------------------------------------------------------------
# Single-job sessions
# ----------------------------------------------------------------------

class TestSingleJobSession:
    def test_matches_private_loop_exactly(self, workload):
        g, part = workload
        solo = IterationLoop(
            BlockBackend(PageRankBlockSpec(g, part), cluster=SimCluster()),
            DriverConfig(mode="eager")).run()

        session = Session(cluster=SimCluster())
        handle = session.submit(BlockBackend(PageRankBlockSpec(g, part)),
                                DriverConfig(mode="eager"), name="pr")
        session.run()

        assert handle.done and handle.result.converged == solo.converged
        assert handle.result.global_iters == solo.global_iters
        assert np.allclose(np.asarray(handle.result.state),
                           np.asarray(solo.state))
        assert _history_key(handle.result) == _history_key(solo)
        assert handle.result.sim_time == pytest.approx(solo.sim_time)

    def test_submit_registers_without_running(self, workload):
        g, part = workload
        session = Session(cluster=SimCluster())
        handle = session.submit(pagerank_spec(g, part))
        assert handle.status == "queued"
        assert handle.rounds == 0 and handle.result is None
        assert session.scheduler.clock == 0.0  # nothing charged yet
        session.run()
        assert handle.done

    def test_spec_defaults_and_overrides(self, workload):
        g, part = workload
        spec = pagerank_spec(g, part, mode="general")
        session = Session(cluster=SimCluster())
        assert session.submit(spec).loop.config.mode == "general"
        override = DriverConfig(mode="eager", max_global_iters=3)
        h = session.submit(spec, override, name="capped")
        assert h.loop.config is override and h.name == "capped"

    def test_engine_job_shares_session_runtime(self, workload):
        g, part = workload
        session = Session()
        backend = EngineBackend(PageRankKVSpec(g, part),
                                runtime=session.runtime, num_reducers=2)
        handle = session.submit(backend, DriverConfig(mode="eager"))
        session.run()
        assert handle.result.converged
        # the session-owned runtime survives the job (pool reuse) ...
        assert session.runtime is backend.runtime
        session.close()

    def test_submit_validation(self, workload):
        g, part = workload
        session = Session(cluster=SimCluster())
        with pytest.raises(ValueError, match="explicit config"):
            session.submit(BlockBackend(PageRankBlockSpec(g, part)))
        with pytest.raises(TypeError):
            session.submit(object())
        with pytest.raises(ValueError, match="different cluster"):
            session.submit(
                BlockBackend(PageRankBlockSpec(g, part), cluster=SimCluster()),
                DriverConfig())
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            Session(policy="lottery")

    def test_loop_stepwise_protocol_guards(self, workload):
        g, part = workload
        loop = IterationLoop(BlockBackend(PageRankBlockSpec(g, part)),
                             DriverConfig(mode="eager"))
        with pytest.raises(RuntimeError, match="before start"):
            loop.step()
        loop.run()
        assert loop.finished
        with pytest.raises(RuntimeError, match="after the run finished"):
            loop.step()


# ----------------------------------------------------------------------
# Interleaving invariance (two jobs, one cluster == private clusters)
# ----------------------------------------------------------------------

class TestInterleavingInvariance:
    @pytest.mark.parametrize("policy", ["fifo", "rr", "fair"])
    def test_round_records_match_sequential_runs(self, policy, workload,
                                                 weighted_workload):
        g, part = workload
        wg, wpart = weighted_workload

        solo_pr = IterationLoop(
            BlockBackend(PageRankBlockSpec(g, part), cluster=SimCluster()),
            DriverConfig(mode="eager")).run()
        solo_sp = IterationLoop(
            BlockBackend(SsspBlockSpec(wg, wpart, source=0),
                         cluster=SimCluster()),
            DriverConfig(mode="eager")).run()

        session = Session(cluster=SimCluster(), policy=policy)
        h_pr = session.submit(pagerank_spec(g, part))
        h_sp = session.submit(sssp_spec(wg, wpart, source=0))
        session.run()

        # identical iterates and per-round records (residuals,
        # local_iters, shuffle bytes) — only simulated timestamps differ
        assert np.allclose(np.asarray(h_pr.result.state),
                           np.asarray(solo_pr.state))
        assert np.allclose(np.asarray(h_sp.result.state),
                           np.asarray(solo_sp.state))
        assert _history_key(h_pr.result) == _history_key(solo_pr)
        assert _history_key(h_sp.result) == _history_key(solo_sp)

    def test_fair_share_rounds_cost_more_but_same_math(self, workload):
        """Contention shows up in sim_seconds, never in the iterates."""
        g, part = workload
        solo = IterationLoop(
            BlockBackend(PageRankBlockSpec(g, part), cluster=SimCluster()),
            DriverConfig(mode="eager")).run()
        session = Session(cluster=SimCluster(), policy="fair")
        h1 = session.submit(pagerank_spec(g, part))
        h2 = session.submit(pagerank_spec(g, part))
        session.run()
        assert _history_key(h1.result) == _history_key(solo)
        # while both jobs pend, each holds half the slots, so each
        # job's rounds take longer than the solo run's
        assert h1.result.sim_time > solo.sim_time


# ----------------------------------------------------------------------
# Scheduling policies
# ----------------------------------------------------------------------

class TestSchedulingPolicies:
    def test_fifo_runs_one_job_at_a_time(self, workload, weighted_workload):
        g, part = workload
        wg, wpart = weighted_workload
        session = Session(cluster=SimCluster(), policy="fifo")
        h1 = session.submit(pagerank_spec(g, part))
        h2 = session.submit(sssp_spec(wg, wpart))
        session.run()
        # the convoy: job 2 waits exactly until job 1 finishes
        assert h1.queue_wait == 0.0
        assert h2.queue_wait == pytest.approx(h1.finished_at)
        assert h2.started_at >= h1.finished_at
        assert all(s == 1.0 for s in h1.slot_shares + h2.slot_shares)

    def test_fifo_priority_overrides_submission_order(self, workload,
                                                      weighted_workload):
        g, part = workload
        wg, wpart = weighted_workload
        session = Session(cluster=SimCluster(), policy="fifo")
        low = session.submit(pagerank_spec(g, part), priority=0)
        high = session.submit(sssp_spec(wg, wpart), priority=5)
        session.run()
        assert high.queue_wait == 0.0
        assert low.started_at >= high.finished_at

    def test_round_robin_alternates_rounds(self, workload):
        g, part = workload
        session = Session(cluster=SimCluster(), policy="rr")
        h1 = session.submit(pagerank_spec(g, part))
        h2 = session.submit(pagerank_spec(g, part))
        # two steps: one round each, strictly alternating
        session.step()
        assert (h1.rounds, h2.rounds) == (1, 0)
        session.step()
        assert (h1.rounds, h2.rounds) == (1, 1)
        session.run()
        assert h1.done and h2.done
        # time-slicing: full cluster during your turn
        assert all(s == 1.0 for s in h1.slot_shares)

    def test_fair_share_splits_slots_and_grows_shares(self, workload):
        g, part = workload
        session = Session(cluster=SimCluster(), policy="fair")
        long_job = session.submit(pagerank_spec(g, part))
        short = session.submit(
            pagerank_spec(g, part, config=DriverConfig(mode="eager",
                                                       max_global_iters=2)))
        session.run()
        # while both pend each holds half the slots; once the short job
        # finishes the long one gets the whole cluster back
        assert short.slot_shares == [0.5, 0.5]
        assert long_job.slot_shares[0] == 0.5
        assert long_job.slot_shares[-1] == 1.0
        # concurrent batches: both jobs start immediately
        assert long_job.queue_wait == 0.0 and short.queue_wait == 0.0

    def test_policy_instances_accepted(self, workload):
        from repro.core import FairSharePolicy

        g, part = workload
        session = Session(cluster=SimCluster(), policy=FairSharePolicy())
        session.submit(pagerank_spec(g, part))
        assert session.run()[0].done

    def test_make_policy_aliases(self):
        assert make_policy("rr").name == "round-robin"
        assert make_policy("fair-share").name == "fair"
        assert make_policy("fifo").name == "fifo"


# ----------------------------------------------------------------------
# Per-job attribution and contention metrics
# ----------------------------------------------------------------------

class TestContentionMetrics:
    def test_per_job_charging_splits_the_shared_clock(self, workload,
                                                      weighted_workload):
        g, part = workload
        wg, wpart = weighted_workload
        cluster = SimCluster()
        session = Session(cluster=cluster, policy="fifo")
        h1 = session.submit(pagerank_spec(g, part))
        h2 = session.submit(sssp_spec(wg, wpart))
        session.run()
        # under FIFO the timeline is a pure concatenation, so the
        # audited per-job charges partition the final clock exactly
        assert h1.accountant.charged + h2.accountant.charged == pytest.approx(
            cluster.clock)
        assert h1.accountant.charged == pytest.approx(h1.busy_seconds)
        assert h1.result.sim_time == pytest.approx(h1.busy_seconds)

    def test_job_labels_prefix_the_shared_trace(self, workload):
        g, part = workload
        cluster = SimCluster()
        session = Session(cluster=cluster, policy="fair")
        session.submit(pagerank_spec(g, part, name="alpha"))
        session.submit(pagerank_spec(g, part, name="beta"))
        session.run()
        phases = {e.phase.split(":", 1)[0] for e in cluster.trace.events}
        assert {"alpha", "beta"} <= phases

    def test_engine_jobs_charge_their_session_accountant(self, workload):
        """Engine-path charges flow through the job's own accountant:
        attribution, job-prefixed trace labels, and the scheduler's
        slot share all apply to EngineBackend jobs too."""
        g, part = workload
        cluster = SimCluster()
        cfg = DriverConfig(mode="eager", max_global_iters=2)
        with Session(cluster=cluster, policy="rr") as session:
            h1 = session.submit(
                EngineBackend(PageRankKVSpec(g, part),
                              runtime=session.runtime, num_reducers=2),
                cfg, name="kv-a")
            h2 = session.submit(
                EngineBackend(PageRankKVSpec(g, part),
                              runtime=session.runtime, num_reducers=2),
                cfg, name="kv-b")
            session.run()
        for h in (h1, h2):
            assert h.accountant.charged == pytest.approx(h.busy_seconds)
            assert h.accountant.charged > 0
        phases = {e.phase.split(":", 1)[0] for e in cluster.trace.events}
        assert {"kv-a", "kv-b"} <= phases

    def test_shared_sync_policy_copied_per_job(self, workload):
        """One AdaptiveSyncPolicy instance submitted twice must not
        cross-feed budgets between interleaved jobs."""
        g, part = workload
        shared = AdaptiveSyncPolicy()
        spec = pagerank_spec(g, part, sync_policy=shared)
        session = Session(cluster=SimCluster(), policy="rr")
        h1 = session.submit(spec)
        h2 = session.submit(spec)
        assert h1.loop.sync_policy is not h2.loop.sync_policy
        session.run()
        solo_policy = AdaptiveSyncPolicy()
        solo = IterationLoop(
            BlockBackend(PageRankBlockSpec(g, part), cluster=SimCluster()),
            DriverConfig(mode="eager"), sync_policy=solo_policy).run()
        for h in (h1, h2):
            assert h.rounds == solo.global_iters
            assert h.loop.sync_policy.budgets == solo_policy.budgets
            assert _history_key(h.result) == _history_key(solo)

    def test_makespan_and_mean_latency(self, workload):
        g, part = workload
        session = Session(cluster=SimCluster(), policy="fair")
        h1 = session.submit(pagerank_spec(g, part))
        h2 = session.submit(pagerank_spec(g, part))
        session.run()
        assert session.makespan() == pytest.approx(
            max(h.finished_at for h in (h1, h2)))
        assert session.mean_latency() == pytest.approx(
            (h1.makespan + h2.makespan) / 2)
        for h in (h1, h2):
            assert h.makespan >= h.busy_seconds > 0
            assert len(h.round_shares) == h.rounds == h.result.global_iters

    def test_fair_beats_fifo_on_mean_latency_for_convoys(self, workload):
        """The headline economics: short jobs stop paying for convoys."""
        g, part = workload

        def mix(policy):
            session = Session(cluster=SimCluster(), policy=policy)
            session.submit(pagerank_spec(g, part, mode="general"))  # long
            session.submit(pagerank_spec(
                g, part, config=DriverConfig(mode="eager")))         # short
            session.run()
            return session.mean_latency()

        assert mix("fair") < mix("fifo")


# ----------------------------------------------------------------------
# Heterogeneous three-job session (the acceptance scenario)
# ----------------------------------------------------------------------

class TestHeterogeneousSession:
    def test_three_app_kinds_one_cluster(self, workload, weighted_workload):
        g, part = workload
        wg, wpart = weighted_workload
        pts = census_sample(600, seed=0)
        cluster = SimCluster()
        with Session(cluster=cluster, policy="fair") as session:
            handles = [
                session.submit(pagerank_spec(g, part)),
                session.submit(kmeans_spec(pts, 4, num_partitions=4, seed=0)),
                session.submit(sssp_spec(wg, wpart)),
            ]
            session.run()
        assert all(h.done and h.result.converged for h in handles)
        assert sum(h.accountant.charged for h in handles) > 0
        # all three charged the ONE shared timeline
        assert cluster.clock >= max(h.finished_at for h in handles)
