"""No-barrier iteration (repro.core.async_backend).

Pins the three guarantees the async backend ships with:

* ``staleness=0`` **is** the barrier — state bitwise equal to
  :class:`BlockBackend`, round records dataclass-equal, accountant
  charges identical phase for phase.
* bounded staleness still reaches the synchronous fixed point, and the
  recorded version vectors never violate the bound.
* the Chazan–Miranker gap is real — a Jacobi system with
  ``rho(M) < 1 < rho(|M|)`` contracts under the barrier, oscillates
  divergently under pure chaos, and the :class:`DivergenceDetector`
  rescues the chaotic run by tightening the bound to 0.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.apps.jacobi import (
    JacobiBlockSpec,
    SparseSystem,
    jacobi_spec,
    make_diagonally_dominant_system,
)
from repro.apps.pagerank import PageRankBlockSpec, pagerank_reference
from repro.apps.sssp import SsspBlockSpec, sssp_reference, sssp_spec
from repro.cluster import OnlineStateStore, SimCluster
from repro.core import (
    AsyncBackend,
    BlockBackend,
    DivergenceDetector,
    DriverConfig,
    IterationLoop,
    Session,
    resolve_block_backend,
)
from repro.graph import (
    DiGraph,
    Partition,
    attach_random_weights,
    make_paper_graph,
    multilevel_partition,
    preferential_attachment,
)


#: Staggered starts that make reads stale on a priced cluster: the last
#: partition starts five simulated seconds (about four rounds) late.
LATE_START = (0.0, 0.0, 0.0, 5.0)


@pytest.fixture(scope="module")
def workload():
    g = preferential_attachment(300, num_conn=3, locality_prob=0.92,
                                community_mean=40, seed=7)
    part = multilevel_partition(g, 4, seed=0)
    return g, part


def oscillating_system():
    """``x <- Mx + b`` with ``M = 0.55 * K`` for the skew matrix ``K``:
    ``rho(M) = 0.95 < 1`` (synchronous Jacobi contracts) but
    ``rho(|M|) = 1.1 > 1`` (chaotic iteration can diverge) — the
    Chazan–Miranker gap, one partition per unknown."""
    c = 0.55
    m = c * np.array([[0.0, 1.0, -1.0],
                      [-1.0, 0.0, 1.0],
                      [1.0, -1.0, 0.0]])
    rows, cols = np.nonzero(m)
    system = SparseSystem(n=3, rows=rows, cols=cols, vals=-m[rows, cols],
                          diag=np.ones(3),
                          b=np.array([1.0, -0.5, 0.25]))
    g = DiGraph(3, rows, cols)
    part = Partition(graph=g, assign=np.arange(3), k=3)
    assert np.max(np.abs(np.linalg.eigvals(m))) < 1.0
    assert np.max(np.abs(np.linalg.eigvals(np.abs(m)))) > 1.0
    return system, part


class TestBarrierParity:
    """``AsyncBackend(staleness=0)`` reproduces ``BlockBackend`` exactly."""

    CFG = DriverConfig(mode="eager",
                       state_store=lambda: OnlineStateStore(num_tablets=2),
                       checkpoint_every=2)

    def _run_pair(self, spec_factory, config):
        block_cl, async_cl = SimCluster(), SimCluster()
        block = IterationLoop(
            BlockBackend(spec_factory(), cluster=block_cl), config).run()
        asyn = IterationLoop(
            AsyncBackend(spec_factory(), staleness=0, cluster=async_cl),
            config).run()
        return block, asyn, block_cl, async_cl

    def test_bitwise_state_and_records(self, workload):
        g, part = workload
        block, asyn, block_cl, async_cl = self._run_pair(
            lambda: PageRankBlockSpec(g, part), self.CFG)
        assert asyn.global_iters == block.global_iters
        assert np.array_equal(np.asarray(asyn.state), np.asarray(block.state))
        # At staleness=0 from the start no async round ever ran, so the
        # records carry no logical clocks and compare dataclass-equal.
        assert asyn.history == block.history

    def test_charge_for_charge(self, workload):
        g, part = workload
        block, asyn, block_cl, async_cl = self._run_pair(
            lambda: PageRankBlockSpec(g, part), self.CFG)
        assert asyn.sim_time == block.sim_time
        assert async_cl.trace.phases() == block_cl.trace.phases()
        assert any("checkpoint" in p for p in async_cl.trace.phases())

    def test_resolver_parity_spelling(self, workload):
        g, part = workload
        be = resolve_block_backend(PageRankBlockSpec(g, part),
                                   backend="async", staleness=0)
        assert isinstance(be, AsyncBackend)
        assert be.staleness == 0


class TestBoundedStaleness:
    def test_pagerank_reaches_sync_fixed_point(self, workload):
        g, part = workload
        ref = pagerank_reference(g)
        for bound in (1, 3, None):
            res = IterationLoop(
                AsyncBackend(PageRankBlockSpec(g, part, tol=1e-7),
                             staleness=bound,
                             phase=(0.0, 0.3, 0.6, 0.9)),
                DriverConfig(mode="eager")).run()
            assert res.converged, bound
            assert np.abs(np.asarray(res.state) - ref).max() < 1e-3, bound

    def test_sssp_exact_at_any_bound(self, workload):
        g, part = workload
        ref = sssp_reference(g, source=0)
        for bound in (0, 2, None):
            res = IterationLoop(
                AsyncBackend(SsspBlockSpec(g, part, source=0),
                             staleness=bound,
                             phase=(0.0, 0.3, 0.6, 0.9)),
                DriverConfig(mode="eager")).run()
            assert np.array_equal(np.asarray(res.state), ref), bound

    def test_version_vector_respects_bound(self, workload):
        g, part = workload
        bound = 2
        res = IterationLoop(
            AsyncBackend(PageRankBlockSpec(g, part), staleness=bound,
                         cluster=SimCluster(), phase=LATE_START),
            DriverConfig(mode="eager",
                         state_store=OnlineStateStore(num_tablets=4))).run()
        stale = [r.max_staleness for r in res.history]
        # every round records one read version per partition, never
        # newer than the round before it
        assert all(len(r.version_vector) == part.k
                   and max(r.version_vector) <= r.iteration
                   for r in res.history)
        assert all(s <= bound for s in stale)
        # The late start makes reads actually stale, or the async
        # machinery was never exercised.
        assert max(stale) > 0

    def test_unbounded_reads_drift_past_any_finite_bound(self, workload):
        g, part = workload
        res = IterationLoop(
            AsyncBackend(PageRankBlockSpec(g, part, tol=1e-7),
                         staleness=None, cluster=SimCluster(),
                         phase=LATE_START),
            DriverConfig(mode="eager",
                         state_store=OnlineStateStore(num_tablets=4))).run()
        assert max(r.max_staleness for r in res.history) > 2

    def test_unpriced_step_costs_one_time_unit(self, workload):
        """Without a cluster every partition's round costs one unit, so
        a partition starting 2.5 units late is read at version
        ``it - 3`` by the others from round 3 on."""
        g, part = workload
        res = IterationLoop(
            AsyncBackend(PageRankBlockSpec(g, part, tol=1e-12),
                         staleness=None, phase=(0.0, 0.0, 0.0, 2.5)),
            DriverConfig(mode="eager", max_global_iters=8)).run()
        assert [r.version_vector for r in res.history] == [
            (max(0, it - 3),) * 3 + (it,) for it in range(8)]

    def test_bounded_staleness_waits_cost_time(self, workload):
        """A tight bound drags the early partitions behind the late one,
        so the same staggered schedule covers a fixed number of rounds
        in fewer simulated seconds the looser the bound."""
        g, part = workload

        def run(bound):
            cl = SimCluster()
            cfg = DriverConfig(mode="eager", max_global_iters=10,
                               state_store=OnlineStateStore(num_tablets=4))
            res = IterationLoop(
                AsyncBackend(PageRankBlockSpec(g, part, tol=1e-12),
                             staleness=bound, cluster=cl, phase=LATE_START),
                cfg).run()
            assert res.global_iters == 10
            return res.sim_time

        assert run(None) <= run(1) * (1 + 1e-9)


class TestMonotoneTermination:
    """A monotone app's fixed point does not depend on staleness, so the
    async SSSP distances must equal the oracle's at every bound."""

    @pytest.fixture(scope="class")
    def graph_a(self):
        g = attach_random_weights(make_paper_graph("A", scale=0.01, seed=0),
                                  seed=1)
        return g, multilevel_partition(g, 4, seed=0)

    # Known defect: with staleness >= 1, round 1 may read version 0,
    # before any partition consumed round 0's publications; a min-plus
    # partition with no new input changes nothing, the residual is 0.0
    # and the loop stops with updates in flight (2 rounds, 39 of 2800
    # nodes reached).
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="async termination stops a monotone app "
                              "before quiescence")
    @pytest.mark.parametrize("bound", [1, 2, None])
    def test_sssp_distances_equal_the_oracle(self, graph_a, bound):
        g, part = graph_a
        cfg = DriverConfig(mode="eager",
                           state_store=OnlineStateStore(num_tablets=1))
        res = sssp_spec(g, part, backend="async", staleness=bound,
                        config=cfg).run(SimCluster())
        assert np.array_equal(res.state, sssp_reference(g))


class TestDivergenceRescue:
    def test_sync_converges_chaos_diverges(self):
        system, part = oscillating_system()
        sync = jacobi_spec(system, part, tol=1e-6, staleness=0,
                           require_dominant=False,
                           config=DriverConfig(mode="eager",
                                              max_global_iters=800)).run()
        assert sync.converged

        chaos = jacobi_spec(system, part, tol=1e-6, staleness=None,
                            phase=(0.0, 0.34, 0.67), require_dominant=False,
                            config=DriverConfig(mode="eager",
                                                max_global_iters=200)).run()
        assert not chaos.converged
        residuals = [r.residual for r in chaos.history]
        assert residuals[-1] > 10 * residuals[0]

    def test_detector_rescues_chaotic_run(self):
        system, part = oscillating_system()
        det = DivergenceDetector()
        res = jacobi_spec(system, part, tol=1e-6, staleness=None,
                          phase=(0.0, 0.34, 0.67), detector=det,
                          require_dominant=False,
                          config=DriverConfig(mode="eager",
                                              max_global_iters=800)).run()
        assert res.converged
        assert system.residual_norm(res.state) < 1e-4
        # The observable trace: unbounded -> fallback -> halved -> ... -> 0.
        assert det.events
        assert det.events[0][1] is None
        assert det.events[-1][2] == 0
        # Once the bound is 0 the rounds are barrier rounds: no version
        # vector, no staleness.
        barrier = res.history[det.events[-1][0] + 1:]
        assert barrier and all(r.version_vector == () and r.max_staleness == 0
                               for r in barrier)

    def test_two_jobs_of_one_description_each_run_as_alone(self):
        """Submitted twice to one session, a description with a detector
        runs each job as it runs alone — rounds, state and tightenings —
        because only the first job watches the caller's detector."""
        system, part = oscillating_system()
        cfg = DriverConfig(mode="eager", max_global_iters=800)

        def describe(det):
            return jacobi_spec(system, part, tol=1e-6, staleness=None,
                               phase=(0.0, 0.34, 0.67), detector=det,
                               require_dominant=False, config=cfg)

        alone_det = DivergenceDetector()
        alone = describe(alone_det).run()
        assert alone.converged and alone_det.events
        det = DivergenceDetector()
        job = describe(det)
        with Session(policy="rr") as session:
            handles = [session.submit(job) for _ in range(2)]
            session.run()
        assert handles[0].loop.backend.detector is det
        for h in handles:
            assert h.result.global_iters == alone.global_iters
            assert h.result.history == alone.history
            assert np.array_equal(h.result.state, alone.state)
            assert h.loop.backend.detector.events == alone_det.events

    def test_detector_unit_behavior(self):
        det = DivergenceDetector()
        # Non-contraction across the six-residual window tightens
        # None -> 4.
        for i, r in enumerate((1.0, 0.9, 0.8, 0.9, 1.0)):
            assert det.observe(i, r, None) is None
        assert det.observe(5, 1.1, None) == 4
        # The window resets: six more observations are needed.
        for i in range(6, 11):
            assert det.observe(i, 1.0, 4) == 4
        assert det.observe(11, 1.0, 4) == 2
        # Non-finite residuals tighten immediately; 0 is a fixed point.
        assert det.observe(12, math.inf, 2) == 1
        assert det.observe(13, math.nan, 1) == 0
        assert det.observe(14, math.inf, 0) == 0
        assert det.events == [(5, None, 4), (11, 4, 2), (12, 2, 1),
                              (13, 1, 0)]

    def test_detector_window_is_six(self):
        """A window compares its newest residual with the oldest of the
        last six: a contracting sixth residual keeps the bound, and a
        rise over only five residuals never trips it."""
        det = DivergenceDetector()
        for i, r in enumerate((1.0, 2.0, 3.0, 4.0, 5.0)):
            assert det.observe(i, r, None) is None
        assert det.observe(5, 0.5, None) is None
        # Now the window is (2, 3, 4, 5, 0.5, 6): 6 >= 2 trips it.
        assert det.observe(6, 6.0, None) == 4
        assert det.events == [(6, None, 4)]


class TestRunsAfresh:
    """One backend run twice runs the same job twice: ``bind`` rebuilds
    the version log, resets the horizon and the round count, restores
    the constructed bound and clears the detector."""

    PHASE = (0.0, 0.3, 0.6, 0.0, 0.3, 0.6)
    CFG = DriverConfig(mode="eager",
                       state_store=lambda: OnlineStateStore(num_tablets=4))

    @pytest.fixture(scope="class")
    def graph_a(self):
        g = make_paper_graph("A", scale=0.01, seed=0)
        return g, multilevel_partition(g, 6, seed=0)

    def _backend(self, graph_a, bound, cluster=None):
        g, part = graph_a
        return AsyncBackend(PageRankBlockSpec(g, part), staleness=bound,
                            phase=self.PHASE, cluster=cluster)

    @pytest.mark.parametrize("bound", [1, 2, None])
    def test_unpriced_second_run_is_the_first(self, graph_a, bound):
        be = self._backend(graph_a, bound)
        first = IterationLoop(be, self.CFG).run()
        second = IterationLoop(be, self.CFG).run()
        assert first.global_iters > 2
        assert second.global_iters == first.global_iters
        assert second.history == first.history
        assert np.array_equal(second.state, first.state)

    @pytest.mark.parametrize("bound", [1, None])
    def test_priced_second_run_is_a_fresh_backends(self, graph_a, bound):
        be = self._backend(graph_a, bound, SimCluster())
        first = IterationLoop(be, self.CFG).run()
        second = IterationLoop(be, self.CFG).run()
        fresh = IterationLoop(self._backend(graph_a, bound, SimCluster()),
                              self.CFG).run()
        assert first.global_iters == second.global_iters == fresh.global_iters
        assert np.array_equal(first.state, fresh.state)
        assert np.array_equal(second.state, fresh.state)
        # the shared clock has moved on, so the sums round differently
        assert second.sim_time == pytest.approx(fresh.sim_time, rel=1e-12)

    @pytest.mark.parametrize("cap", [800, 4])
    def test_the_detector_starts_each_run_empty(self, cap):
        """Rescued (the bound tightened to 0) or stopped at a cap with
        residuals in the window, the next run starts unbounded and
        unobserved."""
        system, part = oscillating_system()
        det = DivergenceDetector()
        be = AsyncBackend(JacobiBlockSpec(system, part, tol=1e-6,
                                          require_dominant=False),
                          staleness=None, phase=(0.0, 0.34, 0.67),
                          detector=det)
        cfg = DriverConfig(mode="eager", max_global_iters=cap)
        first = IterationLoop(be, cfg).run()
        events = list(det.events)
        assert bool(events) == (be.staleness == 0) == (cap == 800)
        second = IterationLoop(be, cfg).run()
        assert det.events == events
        assert second.history == first.history
        assert np.array_equal(second.state, first.state)


class TestValidation:
    def test_staleness_and_shape_validation(self, workload):
        g, part = workload
        spec = PageRankBlockSpec(g, part)
        with pytest.raises(ValueError, match="staleness"):
            AsyncBackend(spec, staleness=-1)
        with pytest.raises(ValueError, match="phase"):
            AsyncBackend(spec, phase=(0.0,))
        with pytest.raises(ValueError, match="phase"):
            AsyncBackend(spec, phase=(0.0, -1.0, 0.0, 0.0))

    def test_spec_must_opt_in(self, workload):
        g, part = workload

        class NoAsync(PageRankBlockSpec):
            supports_async = False

        with pytest.raises(ValueError, match="supports_async"):
            AsyncBackend(NoAsync(g, part), staleness=1)

    def test_needs_online_store_when_charged(self, workload):
        g, part = workload
        be = AsyncBackend(PageRankBlockSpec(g, part), staleness=1,
                          cluster=SimCluster())
        with pytest.raises(ValueError, match="OnlineStateStore"):
            IterationLoop(be, DriverConfig(mode="eager",
                                           state_store="dfs")).run()
        # staleness=0 is the barrier path: any store works.
        ok = IterationLoop(
            AsyncBackend(PageRankBlockSpec(g, part), staleness=0,
                         cluster=SimCluster()),
            DriverConfig(mode="eager", state_store="dfs")).run()
        assert ok.converged

    def test_resolver_rejects_misuse(self, workload):
        g, part = workload
        spec = PageRankBlockSpec(g, part)
        with pytest.raises(ValueError, match="backend"):
            resolve_block_backend(spec, backend="engine")
        with pytest.raises(ValueError, match="async backend only"):
            resolve_block_backend(spec, backend="block", phase=(0.0,) * 4)
        with pytest.raises(ValueError, match="async backend only"):
            resolve_block_backend(spec, backend="block",
                                  detector=DivergenceDetector())
        # Nonzero staleness implies async regardless of the name.
        assert isinstance(resolve_block_backend(spec, staleness=3),
                          AsyncBackend)
        assert isinstance(resolve_block_backend(spec, staleness=None),
                          AsyncBackend)
        assert isinstance(resolve_block_backend(spec), BlockBackend)


class TestAsyncCharges:
    def test_async_rounds_cost_less_than_barrier_rounds(self, workload):
        """The no-barrier round drops per-round job startup and the
        reduce wave; with a cluster attached the per-round simulated
        cost must come out below the barrier path's."""
        g, part = workload

        def run(staleness):
            cl = SimCluster()
            cfg = DriverConfig(mode="eager",
                               state_store=OnlineStateStore(num_tablets=4))
            res = IterationLoop(
                AsyncBackend(PageRankBlockSpec(g, part), staleness=staleness,
                             cluster=cl), cfg).run()
            return res, cl

        barrier, _ = run(0)
        asyn, cl = run(1)
        assert (asyn.sim_time / asyn.global_iters
                < barrier.sim_time / barrier.global_iters)
        # Startup is charged once, not per round.
        startup = [p for p in cl.trace.phases() if "startup" in p]
        assert len(startup) == 1

    def test_store_staleness_stats(self, workload):
        """Stale reads are the rounds' record (``version_vector``); the
        store keeps the publishes' versions and the bytes served."""
        g, part = workload
        store = OnlineStateStore(num_tablets=4)
        cfg = DriverConfig(mode="eager", state_store=store)
        res = IterationLoop(
            AsyncBackend(PageRankBlockSpec(g, part), staleness=3,
                         cluster=SimCluster(), phase=LATE_START),
            cfg).run()
        assert res.converged
        assert 1 <= max(r.max_staleness for r in res.history) <= 3
        assert store.versions == {p: res.global_iters for p in range(part.k)}
        published = sum(sum(r.state_partition_bytes) for r in res.history)
        assert sum(store.tablet_bytes) > published > 0

    def test_jacobi_async_with_cluster_converges(self, workload):
        g, part = workload
        system = make_diagonally_dominant_system(part, seed=3)
        res = jacobi_spec(system, part, staleness=2,
                          config=DriverConfig(
                              mode="eager",
                              state_store=OnlineStateStore(num_tablets=4)),
                          ).run(SimCluster())
        assert res.converged
        assert system.residual_norm(res.state) < 1e-4
