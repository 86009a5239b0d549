"""Tablet-level primitives of the online store (§VIII "System-level
enhancements").

    "Currently, the output from a reduction is written to the
    (distributed) file system (DFS) and must be accessed from the DFS by
    the next set of maps.  This involves significant overhead.  Using
    online data structures (for example, Bigtable) provides credible
    alternatives; however, issues of fault tolerance must be resolved."

This module supplies the two building blocks of that Bigtable
substitute: :class:`OnlineStoreModel`, the cost constants of one tablet
server (memtable write + commit log rather than a 3x-replicated block
write, reads served from memory), and :class:`SimKVStore`, one tablet —
a key -> object store with online-store time accounting and the
DFS-checkpoint escape hatch for durability.

The *state path* built from these primitives lives in
:mod:`repro.cluster.statestore`: an
:class:`~repro.cluster.statestore.OnlineStateStore` key-range-shards
the inter-round state over N :class:`SimKVStore` tablets, each priced
by one shared :class:`OnlineStoreModel`, and charges every round the
time of its hottest tablet.  Iterative drivers never talk to a tablet
directly — their :class:`~repro.cluster.accountant.RoundAccountant`
routes per-partition state bytes through the attached
:class:`~repro.cluster.statestore.StateStore`.  The weak-durability
caveat is unchanged: non-durable stores take a periodic replicated DFS
checkpoint (``DriverConfig.checkpoint_every``), and the state-store
benchmarks quantify the tradeoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cluster.costmodel import check_share
from repro.cluster.dfs import estimate_nbytes

__all__ = ["OnlineStoreModel", "SimKVStore"]


@dataclass(frozen=True)
class OnlineStoreModel:
    """Cost constants of the Bigtable-like store.

    Defaults: an order of magnitude faster than the DFS for state-sized
    round trips — writes go to a memtable + commit log (no 3x block
    replication on the critical path), reads are served from memory.
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


@dataclass
class SimKVStore:
    """Key -> object store with online-store time accounting.

    Functionally a dict (like :class:`~repro.cluster.dfs.SimDFS` it holds
    real objects so jobs genuinely round-trip state); the accounting and
    the durability contract differ.  ``checkpoint`` copies current
    contents into a DFS, charging the full replicated write — that is the
    fault-tolerance resolution the paper asks for.
    """

    model: OnlineStoreModel = field(default_factory=OnlineStoreModel)
    _store: dict = field(default_factory=dict)
    _sizes: dict = field(default_factory=dict)
    time_spent: float = 0.0

    def put(self, key: str, value: Any, *, nbytes: "int | None" = None) -> float:
        size = estimate_nbytes(value) if nbytes is None else int(nbytes)
        if size < 0:
            raise ValueError("nbytes must be >= 0")
        self._store[key] = value
        self._sizes[key] = size
        t = self.model.write_seconds(size)
        self.time_spent += t
        return t

    def get(self, key: str) -> "tuple[Any, float]":
        if key not in self._store:
            raise KeyError(f"online store has no row {key!r}")
        t = self.model.read_seconds(self._sizes[key])
        self.time_spent += t
        return self._store[key], t

    def exists(self, key: str) -> bool:
        return key in self._store

    def checkpoint(self, dfs, *, prefix: str = "ckpt/") -> float:
        """Persist every row to ``dfs`` (a :class:`SimDFS`); returns the
        charged DFS time.  Restores MapReduce's recovery guarantee for
        state kept in the online store."""
        total = 0.0
        for key in sorted(self._store):
            total += dfs.put(prefix + key, self._store[key],
                             nbytes=self._sizes[key])
        return total

    def restore(self, dfs, *, prefix: str = "ckpt/") -> float:
        """Load every checkpointed row back (simulated failure recovery)."""
        total = 0.0
        for key in dfs.keys():
            if key.startswith(prefix):
                value, t = dfs.get(key)
                self._store[key[len(prefix):]] = value
                self._sizes[key[len(prefix):]] = dfs.size_of(key)
                total += t
        return total

    def __len__(self) -> int:
        return len(self._store)
