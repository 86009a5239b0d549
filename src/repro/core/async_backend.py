"""No-barrier iteration with bounded staleness — the async end of the axis.

The paper's synchronization spectrum runs from eager-synchronous
barriers to fully-asynchronous chaotic iteration; the backends in
:mod:`repro.core.loop` reproduce only the synchronous-to-relaxed half,
every round ending in a global barrier.  :class:`AsyncBackend` completes
the axis: partitions publish their state slices *continuously* through
:class:`~repro.cluster.statestore.OnlineStateStore` tablets, and each
local solve consumes whatever neighbour state has arrived by the time it
starts — no job startup per round, no reduce phase, no barrier.

The discipline is governed by one knob, the **staleness bound**:

* ``staleness=0`` — every read must be the neighbour's latest round:
  exactly barrier semantics.  The backend routes these rounds through
  :meth:`BlockBackend.run_round` unchanged, so results and accountant
  charges are *bitwise identical* to the synchronous path.
* ``staleness=S`` — a partition entering round ``i`` may read neighbour
  versions as old as ``i - S``; it blocks until every neighbour has
  published at least that version (the stale-synchronous-parallel
  coupling: fast partitions are dragged along by the slowest, minus
  ``S`` rounds of slack).
* ``staleness=None`` — pure chaotic iteration: never wait, always read
  whatever is newest at the moment the solve starts.

Each backend round advances *every* partition exactly one logical round
(so the loop's history and convergence checks stay aligned), but their
*timelines* drift: partition ``p``'s round costs its own consume +
compute + publish seconds on top of whatever wait its bound imposed, and
the shared cluster clock advances by how far the furthest timeline moved
(:meth:`~repro.cluster.accountant.RoundAccountant.charge_async_step`).
Uneven solve times on a priced cluster, and ``phase`` (staggered starts),
are what make reads actually stale in simulation.

Correctness is the classical chaotic-relaxation story (Chazan &
Miranker): a linear update ``x <- Mx + b`` converges synchronously iff
``rho(M) < 1`` but chaotically iff ``rho(|M|) < 1``, and the gap between
the two is real — Jacobi systems exist that contract under a barrier and
*oscillate divergently* without one.  :class:`DivergenceDetector` guards
that gap at runtime: it watches the residual trajectory, and when a
window stops contracting (or goes non-finite) it tightens the bound —
unbounded drops to a finite fallback, a finite bound halves — until, at
worst, ``staleness=0`` restores barrier semantics and the synchronous
convergence guarantee.
"""

from __future__ import annotations

import math
from typing import Any

from repro.cluster.statestore import OnlineStateStore, even_split
from repro.core.api import BlockSpec
from repro.core.loop import BlockBackend, RoundOutcome

__all__ = ["AsyncBackend", "DivergenceDetector", "resolve_block_backend"]


class DivergenceDetector:
    """Watches the residual trajectory; tightens the bound on non-contraction.

    Chaotic iteration can diverge where synchronous iteration converges
    (``rho(M) < 1 < rho(|M|)``).  The detector observes the global
    residual after every no-barrier round and declares non-contraction
    when the newest of the last :attr:`WINDOW` (6) residuals is no
    smaller than the oldest (or any residual goes non-finite).  Each
    trigger tightens the staleness bound one notch — ``None``
    (unbounded) drops to :attr:`CHAOTIC_FALLBACK` (4), a finite bound
    halves — and clears the window so the iteration is re-observed
    under the new bound before it can tighten again.  The fixed point of repeated tightening is
    ``staleness=0``: barrier semantics, where the synchronous
    convergence guarantee applies.

    Attributes
    ----------
    events:
        One ``(iteration, old_bound, new_bound)`` tuple per tightening,
        in order — the observable trace of a rescued run.
    """

    #: Residuals compared per check: the newest against the oldest.
    WINDOW = 6
    #: The finite bound an unbounded (``None``) staleness drops to.
    CHAOTIC_FALLBACK = 4

    def __init__(self) -> None:
        self.events: "list[tuple]" = []
        self._residuals: "list[float]" = []

    def observe(self, iteration: int, residual: float,
                bound: "int | None") -> "int | None":
        """Feed one round's residual; returns the (possibly tightened)
        staleness bound to use from the next round on."""
        if bound == 0:
            return 0
        r = float(residual)
        if not math.isfinite(r):
            return self._tighten(iteration, bound)
        self._residuals.append(r)
        if len(self._residuals) < self.WINDOW:
            return bound
        recent = self._residuals[-self.WINDOW:]
        if recent[-1] >= recent[0]:
            return self._tighten(iteration, bound)
        return bound

    def _tighten(self, iteration: int, bound: "int | None") -> int:
        new = self.CHAOTIC_FALLBACK if bound is None else bound // 2
        self.events.append((iteration, bound, new))
        self._residuals.clear()
        return new


def resolve_block_backend(spec: BlockSpec, *, backend: str = "block",
                          staleness: "int | None" = 0, cluster=None,
                          phase=None,
                          detector: "DivergenceDetector | None" = None):
    """Map the ``(backend, staleness)`` pair the app entry points and the
    CLI expose onto a bound backend.

    Any nonzero (or unbounded) staleness implies the async backend;
    ``backend="async"`` at ``staleness=0`` is the barrier-equivalent
    async path — useful for the parity pins.  ``phase``/``detector``
    are async-only knobs and are rejected on the barrier path rather
    than silently dropped.
    """
    if staleness is None or staleness != 0:
        backend = "async"
    if backend == "async":
        return AsyncBackend(spec, staleness=staleness, cluster=cluster,
                            phase=phase, detector=detector)
    if backend != "block":
        raise ValueError(f"backend must be 'block' or 'async', got {backend!r}")
    if phase is not None or detector is not None:
        raise ValueError("phase/detector apply to the async backend only")
    return BlockBackend(spec, cluster=cluster)


class AsyncBackend(BlockBackend):
    """No-barrier rounds over continuously-published tablet state.

    Parameters
    ----------
    spec:
        A :class:`BlockSpec` with ``partition_scoped_state`` *and*
        ``supports_async`` — the spec's explicit promise that its local
        solve tolerates mixed-round neighbour state and its combine is
        arrival-order insensitive.
    staleness:
        ``0`` (barrier semantics, the default), a positive bound, or
        ``None`` for pure chaotic iteration.  Negative values are
        rejected.
    phase:
        Per-partition initial timeline offsets in simulated seconds
        (default all ``0.0``) — staggered starts, so partitions read
        across round boundaries.  A partition's round costs its
        consume + solve + publish seconds on a priced cluster, and one
        time unit without one.
    detector:
        Optional :class:`DivergenceDetector`; fed the residual after
        every no-barrier round, its tightened bound takes effect from
        the next round.
    cluster:
        As :class:`BlockBackend`.
    """

    def __init__(self, spec: BlockSpec, *, staleness: "int | None" = 0,
                 cluster=None, phase=None,
                 detector: "DivergenceDetector | None" = None) -> None:
        super().__init__(spec, cluster=cluster)
        if not spec.partition_scoped_state:
            raise ValueError(
                "no-barrier iteration requires a spec with partition-scoped "
                "state (see BlockSpec.partition_scoped_state)")
        if not getattr(spec, "supports_async", False):
            raise ValueError(
                f"{type(spec).__name__} does not opt into no-barrier "
                "iteration (see BlockSpec.supports_async)")
        if staleness is not None:
            staleness = int(staleness)
            if staleness < 0:
                raise ValueError("staleness must be >= 0 (or None for "
                                 "unbounded chaotic iteration)")
        P = spec.num_partitions()
        self.phase = tuple(float(x) for x in
                           (phase if phase is not None else (0.0,) * P))
        if len(self.phase) != P or any(x < 0 for x in self.phase):
            raise ValueError("phase needs one non-negative entry per partition")
        self.initial_staleness = staleness
        self.detector = detector
        self._staleness = staleness
        self._async_started = False
        self._startup_charged = False
        self._rounds_done = 0

    @property
    def staleness(self) -> "int | None":
        """The bound currently in effect (the detector may have
        tightened it below :attr:`initial_staleness`)."""
        return self._staleness

    def bind(self, config, accountant=None) -> None:
        super().bind(config, accountant)
        if self.accountant.active and self._staleness != 0:
            store = self.accountant.state_store
            if not isinstance(store, OnlineStateStore):
                raise ValueError(
                    "no-barrier publish/consume needs an OnlineStateStore "
                    f"(got {store.name!r}); pass an OnlineStateStore "
                    "instance or factory as the DriverConfig's state_store")

    # -- round dispatch -------------------------------------------------
    def run_round(self, iteration: int, state: Any, *,
                  max_local_iters: int) -> RoundOutcome:
        self._rounds_done = iteration + 1
        if self._staleness == 0:
            # Barrier semantics: the synchronous path, charge for charge.
            outcome = super().run_round(iteration, state,
                                        max_local_iters=max_local_iters)
            if self._async_started:
                # Mid-run fallback (detector tightened to 0): keep the
                # logical-clock record going so history stays uniform.
                P = self.spec.num_partitions()
                outcome.partition_clocks = (iteration + 1,) * P
                outcome.version_vector = (iteration,) * P
            return outcome
        return self._run_async_round(iteration, state,
                                     max_local_iters=max_local_iters)

    def global_converged(self, prev_state, curr_state):
        done, residual = self.spec.global_converged(prev_state, curr_state)
        if self.detector is not None and self._staleness != 0:
            new = self.detector.observe(self._rounds_done - 1, residual,
                                        self._staleness)
            if new != self._staleness:
                self._staleness = new
        return done, residual

    # -- the no-barrier round -------------------------------------------
    def _start_tables(self, state: Any) -> None:
        P = self.spec.num_partitions()
        # Views share the initial state object: combines are pure (they
        # write into a copy — tools/reprolint's rule RPR051 polices
        # exactly this), so per-reader views only ever fork, never
        # alias-mutate.
        self._views: "list[Any]" = [state] * P
        self._seen: "list[list[int]]" = [[0] * P for _ in range(P)]
        self._ptime: "list[float]" = list(self.phase)
        self._pub_time: "list[dict]" = [{0: float("-inf")} for _ in range(P)]
        self._pub_report: "list[dict]" = [{} for _ in range(P)]
        self._latest: "list[int]" = [0] * P
        self._horizon: float = 0.0
        self._async_started = True

    def _newest_at(self, q: int, t: float) -> int:
        """Newest version of partition ``q`` published by time ``t``
        (version 0, the initial state, is published at -inf)."""
        v = self._latest[q]
        times = self._pub_time[q]
        while v > 0 and times[v] > t:
            v -= 1
        return v

    def _prune(self) -> None:
        """Drop report payloads no reader can still need."""
        P = len(self._views)
        for q in range(P):
            min_seen = min(self._seen[p][q] for p in range(P))
            reports = self._pub_report[q]
            for v in [v for v in reports if v <= min_seen]:
                del reports[v]

    def _run_async_round(self, iteration: int, state: Any, *,
                         max_local_iters: int) -> RoundOutcome:
        spec, acct, it = self.spec, self.accountant, iteration
        P = spec.num_partitions()
        if not self._async_started:
            self._start_tables(state)
        S = self._staleness

        # Effective start per partition: its own timeline, plus — under
        # a finite bound — the wait until every neighbour has published
        # version it - S (all from earlier rounds, so already known).
        starts = []
        for p in range(P):
            t = self._ptime[p]
            if S is not None:
                rv = max(0, it - S)
                for q in range(P):
                    if q != p:
                        t = max(t, self._pub_time[q][rv])
            starts.append(t)

        reports: "list[Any]" = [None] * P
        pub_bytes = [0] * P
        vv = [it] * P
        # Earlier-starting partitions publish first, so a late starter
        # can consume a same-round version — true chaotic freshness.
        for p in sorted(range(P), key=lambda p: (starts[p], p)):
            t = starts[p]
            view = self._views[p]
            fold: "list[Any]" = []
            read_bytes = [0.0] * P
            read_versions = [0] * P
            oldest = it
            for q in range(P):
                if q == p:
                    continue
                tv = self._newest_at(q, t)
                for v in range(self._seen[p][q] + 1, tv + 1):
                    rep, nb = self._pub_report[q][v]
                    fold.append(rep)
                    read_bytes[q] += nb
                read_versions[q] = tv
                self._seen[p][q] = tv
                oldest = min(oldest, tv)
            if fold:
                view, _, _ = spec.global_combine(view, fold)
            consume = acct.state_consume_seconds(read_bytes,
                                                read_versions=read_versions)
            report = spec.local_solve(p, view, max_local_iters=max_local_iters)
            reports[p] = report
            solve = acct.local_solve_seconds(report)
            nb = (int(report.update_nbytes)
                  if report.update_nbytes is not None
                  else even_split(int(spec.state_nbytes(view)), P)[p])
            publish = acct.state_publish_seconds(p, nb, version=it + 1,
                                                 num_partitions=P)
            if acct.active:
                end = t + consume + solve + publish
            else:
                # Without a cluster a round costs one time unit, so a
                # phase offset becomes a fixed version lag; with no phase
                # every read is fresh.
                end = t + 1.0
            view, _, _ = spec.global_combine(view, [report])
            self._views[p] = view
            self._seen[p][p] = it + 1
            self._pub_time[p][it + 1] = end
            self._pub_report[p][it + 1] = (report, nb)
            self._latest[p] = it + 1
            self._ptime[p] = end
            pub_bytes[p] = nb
            vv[p] = oldest

        horizon = max(self._ptime)
        if acct.active:
            if not self._startup_charged:
                # One continuous job, not one per round — the whole
                # point of dropping the barrier.
                acct.charge_job_startup(label=f"iter{it}:startup")
                self._startup_charged = True
            acct.charge_async_step(max(0.0, horizon - self._horizon),
                                   label=f"iter{it}:async")
            if (not acct.state_store.durable and self.config.checkpoint_every
                    and (it + 1) % self.config.checkpoint_every == 0):
                acct.charge_state_checkpoint(pub_bytes,
                                             label=f"iter{it}:checkpoint")
        self._horizon = horizon
        self._prune()

        new_state, _, _ = spec.global_combine(state, list(reports))
        return RoundOutcome(
            state=new_state,
            local_iters=tuple(r.local_iters for r in reports),
            shuffle_bytes=0,
            state_partition_bytes=tuple(pub_bytes),
            partition_clocks=(it + 1,) * P,
            version_vector=tuple(vv),
        )
