"""Cost model for the simulated distributed environment.

The paper's experiments run on Hadoop 0.20.1 over 8 Amazon EC2 extra-large
instances (Table I), where the dominant per-iteration overhead is the
*global synchronization*: job startup/teardown, the shuffle-sort-merge of
intermediate data across the network, and the DFS round trip between
iterations (§II, §VIII).  We cannot rent a 2010 EC2 cluster, so the time
axis of every figure is produced by this explicit cost model applied to
the *actual executed computation* (operation counts, bytes emitted, task
counts are all measured, not estimated).

Constants are calibrated to public Hadoop-era magnitudes:

* ``job_startup_seconds`` — one MapReduce job submission + scheduling +
  barrier teardown cost ~15-30 s on a small cloud cluster (JobTracker
  round trips, task-tracker heartbeats at 3 s granularity, JVM forks).
* ``task_dispatch_seconds`` — per-task launch overhead (heartbeat-based
  assignment + JVM reuse), a few hundred ms.
* ``map_op_seconds``/``reduce_op_seconds`` — per-record framework cost of
  a user map/reduce function application including
  serialisation/deserialisation (~10 µs/record).
* ``local_op_seconds`` — per-record cost *inside* a gmap's local
  iterations: same user function, but applied in-memory with no
  per-record framework envelope (the paper implements local map/reduce
  over an in-memory hashtable, §V-A), hence cheaper.
* network/DFS rates — effective (not peak) cloud throughputs.

:class:`OnlineStoreModel` prices the §VIII alternative to the DFS round
trip, one tablet server of a Bigtable-like online store.

``HPC_DEFAULTS`` models a tightly-coupled cluster (fast barriers, fast
interconnect) and is used by the barrier-cost-sensitivity ablation to
reproduce the paper's §II observation that asynchrony pays off *more* on
distributed/cloud platforms than on HPC platforms.  ``ZERO_COST`` makes
simulated time equal pure compute (useful for tests).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["CostModel", "OnlineStoreModel", "EC2_DEFAULTS", "HPC_DEFAULTS",
           "ZERO_COST", "ONLINE_STORE_MODEL", "scaled_model", "check_share"]


def check_share(share: float) -> None:
    """Validate a bandwidth/slot share (the fraction of a contended
    resource a job holds); shared by every share-aware cost model."""
    if not 0.0 < share <= 1.0:
        raise ValueError(f"share must be in (0, 1], got {share}")


@dataclass(frozen=True)
class CostModel:
    """Constants converting measured work into simulated seconds."""

    #: Seconds per map-side record/edge operation (framework envelope included).
    map_op_seconds: float = 1.0e-5
    #: Seconds per reduce-side record operation.
    reduce_op_seconds: float = 1.0e-5
    #: Seconds per record operation inside local (partial-sync) iterations.
    local_op_seconds: float = 2.5e-6
    #: Per-task dispatch/launch overhead, charged on the task's slot.
    task_dispatch_seconds: float = 0.2
    #: Per-job fixed cost: submission, scheduling, global barrier teardown.
    job_startup_seconds: float = 20.0
    #: Extra synchronization barrier cost per global reduce.
    barrier_seconds: float = 2.0
    #: Effective aggregate shuffle bandwidth (bytes/second, whole cluster).
    shuffle_bandwidth_bps: float = 16.0e6
    #: One-off latency per shuffle (connection setup, sort/merge start).
    shuffle_latency_seconds: float = 0.5
    #: DFS write bandwidth (bytes/second, before replication).
    dfs_write_bps: float = 40.0e6
    #: DFS read bandwidth (bytes/second).
    dfs_read_bps: float = 80.0e6
    #: DFS replication factor (writes are charged ``replication`` times).
    dfs_replication: int = 3
    #: Fixed cost per DFS write/read pair: output commit, NameNode
    #: metadata operations, block placement — paid regardless of size
    #: (this, not bandwidth, dominates the §VIII inter-iteration round
    #: trip for modest state).
    dfs_touch_seconds: float = 2.0

    def __post_init__(self) -> None:
        for name in (
            "map_op_seconds",
            "reduce_op_seconds",
            "local_op_seconds",
            "shuffle_bandwidth_bps",
            "dfs_write_bps",
            "dfs_read_bps",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in (
            "task_dispatch_seconds",
            "job_startup_seconds",
            "barrier_seconds",
            "shuffle_latency_seconds",
            "dfs_touch_seconds",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.dfs_replication < 1:
            raise ValueError("dfs_replication must be >= 1")

    # -- conversions ----------------------------------------------------
    def map_compute_seconds(self, ops: float) -> float:
        """Compute time of a map task that performed ``ops`` record operations."""
        return ops * self.map_op_seconds

    def reduce_compute_seconds(self, ops: float) -> float:
        """Compute time of a reduce task over ``ops`` record operations."""
        return ops * self.reduce_op_seconds

    def local_compute_seconds(self, ops: float) -> float:
        """Compute time of in-memory local map/reduce iterations."""
        return ops * self.local_op_seconds

    def shuffle_seconds(self, nbytes: float, *, share: float = 1.0) -> float:
        """Time to move ``nbytes`` of intermediate data through the shuffle.

        ``share`` is the fraction of the cluster's aggregate network the
        transfer may use — a multi-job scheduler grants each concurrent
        job its slot share of the bandwidth (latency is per-transfer and
        does not divide).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        check_share(share)
        if nbytes == 0:
            return 0.0
        return (self.shuffle_latency_seconds
                + nbytes / (self.shuffle_bandwidth_bps * share))

    def dfs_write_seconds(self, nbytes: float, *, share: float = 1.0) -> float:
        """Time to persist ``nbytes`` to the DFS (replication and the
        fixed commit/metadata cost included); ``share`` scales the
        write bandwidth available to the caller."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        check_share(share)
        return (self.dfs_touch_seconds
                + nbytes * self.dfs_replication / (self.dfs_write_bps * share))

    def dfs_read_seconds(self, nbytes: float, *, share: float = 1.0) -> float:
        """Time to read ``nbytes`` back from the DFS."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        check_share(share)
        return nbytes / (self.dfs_read_bps * share)


@dataclass(frozen=True)
class OnlineStoreModel:
    """Cost constants of one tablet server of the Bigtable-like store.

    §VIII: "Using online data structures (for example, Bigtable)
    provides credible alternatives" to the DFS round trip.  Defaults: an
    order of magnitude faster than the DFS for state-sized round trips —
    writes go to a memtable + commit log (no 3x block replication on the
    critical path), reads are served from memory.
    """

    #: Sustained write throughput (bytes/second).
    write_bps: float = 200.0e6
    #: Sustained read throughput (bytes/second).
    read_bps: float = 400.0e6
    #: Fixed per-operation latency (tablet lookup + RPC).
    op_latency_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.write_bps <= 0 or self.read_bps <= 0:
            raise ValueError("throughputs must be > 0")
        if self.op_latency_seconds < 0:
            raise ValueError("op_latency_seconds must be >= 0")

    def write_seconds(self, nbytes: float, *, share: float = 1.0) -> float:
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        check_share(share)
        return self.op_latency_seconds + nbytes / (self.write_bps * share)

    def read_seconds(self, nbytes: float, *, share: float = 1.0) -> float:
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        check_share(share)
        return self.op_latency_seconds + nbytes / (self.read_bps * share)

    def roundtrip_seconds(self, nbytes: float, *, share: float = 1.0) -> float:
        """One iteration's state write + next iteration's read.

        ``share`` models a job holding only a fraction of the tablet
        servers' throughput while other jobs of a session run
        concurrently (per-operation latency does not divide).
        """
        return (self.write_seconds(nbytes, share=share)
                + self.read_seconds(nbytes, share=share))


#: Table I testbed: 8 EC2 extra-large instances running Hadoop 0.20.1.
EC2_DEFAULTS = CostModel()

#: The tablet servers' prices: every online store and the legacy scalar
#: ``charge_state_roundtrip(store="online")`` read this one model.
ONLINE_STORE_MODEL = OnlineStoreModel()

#: Tightly-coupled HPC platform: cheap barriers and fast interconnect, so
#: the partial-vs-global synchronization gap is far smaller (§II).
HPC_DEFAULTS = CostModel(
    task_dispatch_seconds=0.002,
    dfs_touch_seconds=0.01,
    job_startup_seconds=0.05,
    barrier_seconds=0.005,
    shuffle_bandwidth_bps=2.0e9,
    shuffle_latency_seconds=0.001,
    dfs_write_bps=1.0e9,
    dfs_read_bps=2.0e9,
    dfs_replication=1,
)

#: Pure-compute model: all overheads zero (compute costs kept) — tests.
ZERO_COST = CostModel(
    task_dispatch_seconds=0.0,
    dfs_touch_seconds=0.0,
    job_startup_seconds=0.0,
    barrier_seconds=0.0,
    shuffle_bandwidth_bps=float("inf"),
    shuffle_latency_seconds=0.0,
    dfs_write_bps=float("inf"),
    dfs_read_bps=float("inf"),
    dfs_replication=1,
)


def scaled_model(base: CostModel, *, overhead_scale: float) -> CostModel:
    """Scale every *overhead* constant (not compute) by ``overhead_scale``.

    Used by the barrier-cost-sensitivity ablation to sweep smoothly from
    HPC-like (scale ~0) to cloud-like (scale 1) synchronization costs.
    """
    if overhead_scale < 0:
        raise ValueError("overhead_scale must be >= 0")
    s = overhead_scale
    return replace(
        base,
        task_dispatch_seconds=base.task_dispatch_seconds * s,
        job_startup_seconds=base.job_startup_seconds * s,
        barrier_seconds=base.barrier_seconds * s,
        shuffle_latency_seconds=base.shuffle_latency_seconds * s,
        dfs_touch_seconds=base.dfs_touch_seconds * s,
        shuffle_bandwidth_bps=base.shuffle_bandwidth_bps / max(s, 1e-12),
    )
