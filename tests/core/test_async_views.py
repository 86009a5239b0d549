"""``AsyncBackend``'s private views against a full-view fold.

The backend keeps one private view of the state per partition and has
the spec refresh it in place, only at the rows the partition's solve
reads (``read_rows``), from the versions it consumes.  The reference
below is the design it replaced, kept here as the oracle: every reader
re-folds every version it consumes into a fresh copy of its whole view
with ``global_combine``, and keeps its tables as seven parallel lists.
Both must give the same states, version vectors and charges, to the bit,
at every bound, with staggered starts, and through a divergence rescue.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.apps.jacobi import JacobiBlockSpec, make_diagonally_dominant_system
from repro.apps.pagerank import PageRankBlockSpec
from repro.apps.sssp import SsspBlockSpec
from repro.cluster import OnlineStateStore, SimCluster
from repro.cluster.statestore import even_split
from repro.core import AsyncBackend, DivergenceDetector, DriverConfig, IterationLoop
from repro.core.loop import RoundOutcome
from repro.graph import attach_random_weights, multilevel_partition, preferential_attachment

from tests.core.test_async_backend import oscillating_system


class FullViewBackend(AsyncBackend):
    """The no-barrier round with whole-state views re-folded by
    ``global_combine`` on every read."""

    def _run_async_round(self, iteration, state, *, max_local_iters):
        spec, acct, it = self.spec, self.accountant, iteration
        P = spec.num_partitions()
        if not hasattr(self, "_views"):
            self._views = [state] * P
            self._seen = [[0] * P for _ in range(P)]
            self._ptime = list(self.phase)
            self._pub_time = [{0: float("-inf")} for _ in range(P)]
            self._pub_report = [{} for _ in range(P)]
            self._latest = [0] * P
            self._charged_startup = False
        S = self._staleness

        def newest_at(q, t):
            v = self._latest[q]
            while v > 0 and self._pub_time[q][v] > t:
                v -= 1
            return v

        starts = []
        for p in range(P):
            t = self._ptime[p]
            if S is not None:
                for q in range(P):
                    if q != p:
                        t = max(t, self._pub_time[q][max(0, it - S)])
            starts.append(t)
        reports, pub_bytes, vv = [None] * P, [0] * P, [it] * P
        for p in sorted(range(P), key=lambda p: (starts[p], p)):
            t, view, fold = starts[p], self._views[p], []
            read_bytes, oldest = [0.0] * P, it
            for q in range(P):
                if q == p:
                    continue
                tv = newest_at(q, t)
                for v in range(self._seen[p][q] + 1, tv + 1):
                    rep, nb = self._pub_report[q][v]
                    fold.append(rep)
                    read_bytes[q] += nb
                self._seen[p][q] = tv
                oldest = min(oldest, tv)
            if fold:
                view, _, _ = spec.global_combine(view, fold)
            consume = acct.state_consume_seconds(read_bytes)
            report = spec.local_solve(p, view, max_local_iters=max_local_iters)
            reports[p] = report
            solve = acct.local_solve_seconds(report)
            nb = (int(report.update_nbytes) if report.update_nbytes is not None
                  else even_split(int(spec.state_nbytes(view)), P)[p])
            publish = acct.state_publish_seconds(p, nb, version=it + 1,
                                                 num_partitions=P)
            end = t + consume + solve + publish if acct.active else t + 1.0
            view, _, _ = spec.global_combine(view, [report])
            self._views[p] = view
            self._seen[p][p] = it + 1
            self._pub_time[p][it + 1] = end
            self._pub_report[p][it + 1] = (report, nb)
            self._latest[p] = it + 1
            self._ptime[p] = end
            pub_bytes[p], vv[p] = nb, oldest

        horizon = max(self._ptime)
        if acct.active:
            if not self._charged_startup:
                acct.charge_job_startup(label=f"iter{it}:startup")
                self._charged_startup = True
            acct.charge_fixed(f"iter{it}:async", max(0.0, horizon - self._horizon))
            acct.charge_due_checkpoint(pub_bytes, iteration=it,
                                       label=f"iter{it}:checkpoint")
        self._horizon = horizon
        for q in range(P):
            done = min(self._seen[p][q] for p in range(P))
            for v in [v for v in self._pub_report[q] if v <= done]:
                del self._pub_report[q][v]
        new_state, _, _ = spec.global_combine(state, list(reports))
        return RoundOutcome(
            state=new_state, local_iters=tuple(r.local_iters for r in reports),
            shuffle_bytes=0, state_partition_bytes=tuple(pub_bytes),
            version_vector=tuple(vv))


def run(cls, make_spec, *, staleness, phase, priced=True, detector=None,
        max_global_iters=200):
    cluster = SimCluster() if priced else None
    store = OnlineStateStore(num_tablets=3, split_threshold=40_000)
    res = IterationLoop(
        cls(make_spec(), staleness=staleness, cluster=cluster, phase=phase,
            detector=detector),
        DriverConfig(mode="eager", state_store=store, checkpoint_every=3,
                     max_global_iters=max_global_iters)).run()
    charges = (cluster.trace.phases(), cluster.clock) if priced else ()
    return res, charges, (store.tablet_bytes, store.boundaries, store.versions)


def assert_same_run(make_spec, **kwargs):
    want = run(FullViewBackend, make_spec, **kwargs)
    got = run(AsyncBackend, make_spec, **kwargs)
    (w, w_charges, w_store), (g, g_charges, g_store) = want, got
    assert np.asarray(g.state).tobytes() == np.asarray(w.state).tobytes()
    assert g.history == w.history         # version vectors, residuals, seconds
    assert g.sim_time == w.sim_time
    assert g_charges == w_charges
    assert g_store == w_store
    return g


@pytest.fixture(scope="module")
def graph():
    g = preferential_attachment(240, num_conn=3, locality_prob=0.9,
                                community_mean=30, seed=5)
    return g, multilevel_partition(g, 5, seed=0)


PHASE = (0.0, 0.4, 0.0, 3.0, 1.1)


@pytest.mark.parametrize("staleness", [1, 2, None])
class TestPrivateViewsMatchTheFullViewFold:
    def test_pagerank(self, graph, staleness):
        g, part = graph
        res = assert_same_run(lambda: PageRankBlockSpec(g, part, tol=1e-7),
                              staleness=staleness, phase=PHASE)
        assert max(r.max_staleness for r in res.history) > 0

    def test_sssp(self, graph, staleness):
        g, part = graph
        wg = attach_random_weights(g, seed=2)
        assert_same_run(lambda: SsspBlockSpec(wg, part, source=0),
                        staleness=staleness, phase=PHASE)

    def test_jacobi(self, graph, staleness):
        g, part = graph
        system = make_diagonally_dominant_system(part, seed=4)
        assert_same_run(lambda: JacobiBlockSpec(system, part),
                        staleness=staleness, phase=PHASE)

    def test_unpriced(self, graph, staleness):
        g, part = graph
        assert_same_run(lambda: PageRankBlockSpec(g, part, tol=1e-9),
                        staleness=staleness, phase=(0.0, 0.0, 2.5, 0.0, 1.5),
                        priced=False, max_global_iters=30)


def test_a_divergence_rescue(monkeypatch):
    """The chaotic run diverges, the detector tightens the bound down to
    the barrier, and both designs walk the same trajectory."""
    system, part = oscillating_system()
    detectors = []

    def make():
        detectors.append(DivergenceDetector())
        return detectors[-1]

    results = []
    for cls in (FullViewBackend, AsyncBackend):
        res = IterationLoop(
            cls(JacobiBlockSpec(system, part, tol=1e-6, require_dominant=False),
                staleness=None, phase=(0.0, 0.34, 0.67), detector=make()),
            DriverConfig(mode="eager", max_global_iters=800)).run()
        results.append(res)
    want, got = results
    assert got.converged and detectors[1].events[-1][2] == 0
    assert detectors[1].events == detectors[0].events
    assert np.asarray(got.state).tobytes() == np.asarray(want.state).tobytes()
    assert got.history == want.history
    assert all(math.isfinite(r.residual) for r in got.history[-3:])
