"""Options no caller set are gone, together with the paths they chose.

Each pair below names a keyword (or dataclass field) that only the test
suite ever passed; the library now takes none of them and always runs
what used to be the default, kept as a named constant where it is a
number.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

import repro.apps
import repro.cluster
import repro.core

from repro.apps import (
    PageRankKVSpec,
    components_spec,
    jacobi_spec,
    kmeans_spec,
    landmark_apsp,
    sse,
)
from repro.cluster import (
    DFSStateStore,
    OnlineStateStore,
    RoundAccountant,
    SimCluster,
    StateStore,
    late_threshold,
)
from repro.core import (
    AdaptiveSyncPolicy,
    AsyncBackend,
    BlockBackend,
    DivergenceDetector,
    DriverConfig,
    EngineBackend,
    HierarchicalBackend,
    Session,
    autotune_partitions,
    resolve_block_backend,
)
from repro.engine import FaultPlan, JobConf, NodeFaultPlan, StragglerPlan
from repro.graph import multilevel_partition

FIELDS = [
    (JobConf, "eager_reduce"),
    (JobConf, "max_attempts"),
    (DriverConfig, "charge_local_ops_at"),
    (DriverConfig, "record_history"),
    (FaultPlan, "probability"),
    (FaultPlan, "seed"),
    (FaultPlan, "always_succeed_from"),
    (StragglerPlan, "stall_probability"),
    (StragglerPlan, "stall_seconds"),
    (StragglerPlan, "seed"),
    (NodeFaultPlan, "probability"),
    (NodeFaultPlan, "seed"),
]

KEYWORDS = [
    (EngineBackend, "eager_reduce"),
    (BlockBackend, "num_reduce_tasks"),
    (HierarchicalBackend, "num_reduce_tasks"),
    (AsyncBackend, "num_reduce_tasks"),
    (RoundAccountant.charge_global_sync, "num_reduce_tasks"),
    (AsyncBackend, "pace"),
    (resolve_block_backend, "pace"),
    (jacobi_spec, "pace"),
    (DivergenceDetector, "window"),
    (DivergenceDetector, "chaotic_fallback"),
    (autotune_partitions, "target_residual"),
    (autotune_partitions, "config"),
    (autotune_partitions, "cluster_factory"),
    (kmeans_spec, "reshuffle_every"),
    (kmeans_spec, "config"),
    (kmeans_spec, "sync_policy"),
    (components_spec, "config"),
    (landmark_apsp, "config"),
    (PageRankKVSpec, "damping"),
    (PageRankKVSpec, "tol"),
    (sse, "assignment"),
    (StragglerPlan.slow_nodes, "stall_probability"),
    (StragglerPlan.slow_nodes, "stall_seconds"),
    (StragglerPlan.slow_nodes, "seed"),
    (AdaptiveSyncPolicy, "initial_budget"),
    (AdaptiveSyncPolicy, "grow"),
    (AdaptiveSyncPolicy, "shrink"),
    (AdaptiveSyncPolicy, "fast_contraction"),
    (AdaptiveSyncPolicy, "budgets"),
    (HierarchicalBackend, "hierarchy"),
    (HierarchicalBackend, "rack_startup_seconds"),
    (HierarchicalBackend, "rack_shuffle_speedup"),
    (SimCluster, "online_model"),
    (DFSStateStore, "cost_model"),
    (OnlineStateStore, "model"),
    (OnlineStateStore, "cost_model"),
    (Session, "runtime"),
    (multilevel_partition, "balance_tol"),
    (late_threshold, "slowdown_threshold"),
    (late_threshold, "percentile"),
]

#: Names ``repro.core`` no longer exports.
EXPORTS = ["SessionScheduler", "HierarchyConfig"]

#: Names ``repro.cluster`` no longer exports: speculation is a bool, and
#: LATE's policy is constants beside the code that reads them.
CLUSTER_EXPORTS = ["SpeculationConfig"]

#: Names ``repro.apps`` no longer exports: the immediate runners and
#: their result wrappers (each app is its ``*_spec`` description, run
#: alone by ``JobSpec.run``).
APP_EXPORTS = [
    "pagerank", "sssp", "kmeans", "connected_components", "jacobi_solve",
    "PageRankResult", "SsspResult", "KMeansResult", "ComponentsResult",
    "JacobiResult",
]


def _id(case) -> str:
    owner, name = case
    return f"{owner.__qualname__}.{name}"


@pytest.mark.parametrize("case", FIELDS, ids=_id)
def test_config_field_is_gone(case):
    owner, name = case
    assert name not in {f.name for f in dataclasses.fields(owner)}
    with pytest.raises(TypeError, match=name):
        owner(**{name: None})


@pytest.mark.parametrize("case", KEYWORDS, ids=_id)
def test_keyword_is_gone(case):
    owner, name = case
    assert name not in inspect.signature(owner).parameters
    # Python rejects an unknown keyword before it binds the others.
    with pytest.raises(TypeError, match=name):
        owner(**{name: None})


@pytest.mark.parametrize("name", EXPORTS)
def test_core_export_is_gone(name):
    assert not hasattr(repro.core, name)  # ``from repro.core import`` fails


@pytest.mark.parametrize("name", CLUSTER_EXPORTS)
def test_cluster_export_is_gone(name):
    assert not hasattr(repro.cluster, name)
    assert name not in repro.cluster.__all__


@pytest.mark.parametrize("name", APP_EXPORTS)
def test_apps_export_is_gone(name):
    # ``repro.apps.pagerank`` (and ``sssp``, ``kmeans``) is the app's module
    obj = getattr(repro.apps, name, None)
    assert obj is None or inspect.ismodule(obj)
    assert name not in repro.apps.__all__


def test_the_accountant_prices_no_overlapped_shuffle():
    assert not hasattr(RoundAccountant, "charge_overlapped_shuffle")


def test_a_store_keeps_no_cluster_prices():
    """Each charge takes the charging cluster's cost model, so no store
    binds to a cluster and the cluster carries no store prices."""
    for cls in (StateStore, DFSStateStore, OnlineStateStore):
        assert not hasattr(cls, "bind")
    assert not hasattr(SimCluster(), "online_model")
