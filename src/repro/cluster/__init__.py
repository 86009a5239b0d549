"""Simulated distributed environment (the paper's EC2 testbed substitute).

This package provides the measurement substrate: an explicit
:class:`~repro.cluster.costmodel.CostModel` with EC2-like and HPC-like
presets, :class:`~repro.cluster.node.SimNode` machines with map/reduce
slots, greedy list scheduling with a full event
:class:`~repro.cluster.trace.Trace`, and the partitioned inter-round
state stores of :mod:`repro.cluster.statestore`
(:class:`~repro.cluster.statestore.DFSStateStore` /
tablet-sharded :class:`~repro.cluster.statestore.OnlineStateStore`),
which price state round trips from byte counts and hold no data.
All "time to converge" numbers in the figure benchmarks are simulated
seconds produced here from *measured* operation counts, byte counts,
and task counts.
"""

from repro.cluster.accountant import RoundAccountant
from repro.cluster.cluster import (
    PhaseResult,
    SimCluster,
    late_threshold,
)
from repro.cluster.costmodel import (
    CostModel,
    EC2_DEFAULTS,
    HPC_DEFAULTS,
    OnlineStoreModel,
    ZERO_COST,
    scaled_model,
)
from repro.cluster.dfs import estimate_nbytes
from repro.cluster.node import SimNode, ec2_nodes
from repro.cluster.statestore import (
    DFSStateStore,
    OnlineStateStore,
    StateStore,
    even_split,
    resolve_state_store,
)
from repro.cluster.trace import Event, Trace
from repro.cluster.workerpool import WorkerPool

__all__ = [
    "SimCluster",
    "PhaseResult",
    "late_threshold",
    "RoundAccountant",
    "CostModel",
    "EC2_DEFAULTS",
    "HPC_DEFAULTS",
    "ZERO_COST",
    "scaled_model",
    "estimate_nbytes",
    "OnlineStoreModel",
    "StateStore",
    "DFSStateStore",
    "OnlineStateStore",
    "resolve_state_store",
    "even_split",
    "SimNode",
    "ec2_nodes",
    "Event",
    "Trace",
    "WorkerPool",
]
