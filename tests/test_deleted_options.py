"""Options no caller set are gone, together with the paths they chose.

Each pair below names a keyword (or dataclass field) that only the test
suite ever passed; the library now takes none of them and always runs
what used to be the default.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.apps import (
    PageRankKVSpec,
    components_spec,
    connected_components,
    jacobi_solve,
    kmeans,
    kmeans_spec,
    landmark_apsp,
    sse,
)
from repro.cluster import RoundAccountant
from repro.core import (
    AsyncBackend,
    BlockBackend,
    DivergenceDetector,
    DriverConfig,
    EngineBackend,
    HierarchicalBackend,
    autotune_partitions,
    resolve_block_backend,
)
from repro.engine import FaultPlan, JobConf, NodeFaultPlan, StragglerPlan

FIELDS = [
    (JobConf, "eager_reduce"),
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
    (jacobi_solve, "pace"),
    (DivergenceDetector, "window"),
    (DivergenceDetector, "chaotic_fallback"),
    (autotune_partitions, "target_residual"),
    (autotune_partitions, "config"),
    (autotune_partitions, "cluster_factory"),
    (kmeans, "reshuffle_every"),
    (kmeans_spec, "reshuffle_every"),
    (kmeans_spec, "config"),
    (kmeans_spec, "sync_policy"),
    (connected_components, "config"),
    (components_spec, "config"),
    (landmark_apsp, "config"),
    (PageRankKVSpec, "damping"),
    (PageRankKVSpec, "tol"),
    (sse, "assignment"),
    (StragglerPlan.slow_nodes, "stall_probability"),
    (StragglerPlan.slow_nodes, "stall_seconds"),
    (StragglerPlan.slow_nodes, "seed"),
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


def test_the_accountant_prices_no_overlapped_shuffle():
    assert not hasattr(RoundAccountant, "charge_overlapped_shuffle")
