"""Configuration for the iterative partial-synchronization driver.

``DriverConfig.state_store`` selects where inter-round state
round-trips (§VIII).  It accepts a
:class:`~repro.cluster.statestore.StateStore` instance, a zero-argument
factory returning one, or the default ``"dfs"``
(:class:`~repro.cluster.statestore.DFSStateStore`, Hadoop's behaviour).
Pass an :class:`~repro.cluster.statestore.OnlineStateStore` to choose a
tablet count and get the partitioned hot-tablet behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from repro.cluster.cluster import SpeculationConfig
from repro.cluster.statestore import StateStore

__all__ = ["DriverConfig", "GENERAL", "EAGER"]

_MODES = ("general", "eager")

@dataclass(frozen=True)
class DriverConfig:
    """Knobs of one iterative run.

    Local-iteration operations are always priced at the cost model's
    in-memory local rate: local map/reduce runs over a hashtable inside
    the gmap's JVM (§V-A), with none of the per-record framework
    envelope a real map invocation pays.  The *operation counts* are
    measured, honouring the paper's "serial operation counts are
    higher" accounting.  Every run keeps its per-iteration history.

    Attributes
    ----------
    mode:
        ``"general"`` — the paper's baseline: one map+reduce per global
        iteration, maps operating on complete partitions (§V-B.1).
        ``"eager"`` — the paper's contribution: local map/reduce
        iterations run to local convergence inside each gmap before the
        global synchronization (§V-B.2).
    max_global_iters:
        Safety bound on global iterations.
    max_local_iters:
        Bound on local iterations within one gmap (eager mode only; the
        general baseline always performs exactly one local step).
    eager_schedule:
        When True (the paper's setting) a partition's next local
        iteration is scheduled as soon as its local reduce finishes, so
        a whole gmap is one schedulable task and load imbalance between
        partitions is smoothed.  When False, local iterations run in
        lockstep across partitions (a barrier per local round) — the
        ablation that isolates eager scheduling's contribution.
    state_store:
        Where inter-iteration state round-trips (§VIII) — a
        :class:`~repro.cluster.statestore.StateStore` instance, a
        zero-argument factory returning one, or the default ``"dfs"``.
        Backends charge **per-partition** state bytes through the
        store: :class:`~repro.cluster.statestore.DFSStateStore` is
        Hadoop's behaviour (one replicated DFS file of the aggregate,
        durable by construction);
        :class:`~repro.cluster.statestore.OnlineStateStore` is the
        Bigtable-like store the paper's future-work section proposes —
        key-range-sharded tablets served in parallel, a round costing
        its hottest tablet, cheap per iteration but needing periodic
        checkpoints for fault tolerance.  Passing one *instance* to
        several jobs of a session makes them contend on the same
        tablets.
    checkpoint_every:
        With a non-durable store (the online store): take a full DFS
        checkpoint of the state every this many global iterations
        (``None`` disables — fast but unrecoverable, the
        unresolved-fault-tolerance configuration the paper warns
        about).  Ignored for the DFS store, which is durable by
        construction.  Must be a positive integer or ``None``; zero and
        negative values are rejected at construction rather than
        surfacing as a modulo error deep in the accountant.
    speculate:
        Speculative re-execution of straggling tasks (Hadoop's backup
        tasks, LATE-style).  ``False`` (default) disables; ``True``
        enables with :class:`~repro.cluster.SpeculationConfig` defaults;
        a :class:`~repro.cluster.SpeculationConfig` instance tunes the
        threshold/percentile.  Every phase the accountant schedules —
        and, in the engine backend, real task execution — launches
        backup copies of tasks running past the LATE threshold and takes
        the first result.
    """

    mode: str = "eager"
    max_global_iters: int = 500
    max_local_iters: int = 200
    eager_schedule: bool = True
    state_store: "Union[str, StateStore, Callable[[], StateStore]]" = "dfs"
    checkpoint_every: "int | None" = 10
    #: Speculative re-execution of stragglers: ``False`` / ``True`` /
    #: a :class:`~repro.cluster.SpeculationConfig`.
    speculate: "Union[bool, SpeculationConfig]" = False

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.max_global_iters < 1:
            raise ValueError("max_global_iters must be >= 1")
        if self.max_local_iters < 1:
            raise ValueError("max_local_iters must be >= 1")
        if not (self.state_store == "dfs"
                or isinstance(self.state_store, StateStore)
                or callable(self.state_store)):
            raise ValueError(
                f"state_store must be 'dfs', a StateStore instance or a "
                f"factory, got {self.state_store!r}"
            )
        if self.checkpoint_every is not None:
            if (not isinstance(self.checkpoint_every, int)
                    or isinstance(self.checkpoint_every, bool)):
                raise ValueError(
                    f"checkpoint_every must be a positive int or None, "
                    f"got {self.checkpoint_every!r}"
                )
            if self.checkpoint_every <= 0:
                raise ValueError(
                    "checkpoint_every must be >= 1 "
                    "(pass checkpoint_every=None to disable checkpointing)"
                )
        if not isinstance(self.speculate, (bool, SpeculationConfig)):
            raise ValueError(
                f"speculate must be a bool or a SpeculationConfig, "
                f"got {self.speculate!r}"
            )

    @property
    def effective_local_iters(self) -> int:
        """Local iterations allowed per gmap under this mode."""
        return 1 if self.mode == "general" else self.max_local_iters


#: The paper's baseline configuration.
GENERAL = DriverConfig(mode="general")
#: The paper's partial-synchronization + eager-scheduling configuration.
EAGER = DriverConfig(mode="eager")
