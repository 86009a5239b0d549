"""Shared fixtures for the test suite.

Fixtures build small-but-structured inputs once per session; tests that
mutate inputs must copy them.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.cluster import SimCluster, ZERO_COST, ec2_nodes
from repro.data import census_sample
from repro.graph import (
    DiGraph,
    attach_random_weights,
    multilevel_partition,
    preferential_attachment,
)

from tests.inputs import gaussian_mixture


@pytest.fixture(autouse=True)
def _collector_left_enabled():
    """Fail a test that leaves the cyclic garbage collector disabled:
    the engine holds it off for a job and must always hand it back."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled and not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


@pytest.fixture(scope="session")
def small_graph() -> DiGraph:
    """A 400-node community-structured power-law digraph."""
    return preferential_attachment(
        400, num_conn=3, num_in=1, num_out=1,
        locality_prob=0.92, community_mean=40, seed=7,
    )


@pytest.fixture(scope="session")
def weighted_graph(small_graph: DiGraph) -> DiGraph:
    """The small graph with Uniform[1, 10) edge weights."""
    return attach_random_weights(small_graph, low=1.0, high=10.0, seed=11)


@pytest.fixture(scope="session")
def small_partition(small_graph: DiGraph):
    return multilevel_partition(small_graph, 4, seed=0)


@pytest.fixture(scope="session")
def weighted_partition(weighted_graph: DiGraph):
    return multilevel_partition(weighted_graph, 4, seed=0)


@pytest.fixture(scope="session")
def tiny_graph() -> DiGraph:
    """A hand-checkable 6-node graph.

    Edges: 0->1, 0->2, 1->2, 2->0, 3->4, 4->3, 5 isolated.
    Two weak components {0,1,2}, {3,4} and the singleton {5}.
    """
    return DiGraph(6, [0, 0, 1, 2, 3, 4], [1, 2, 2, 0, 4, 3])


@pytest.fixture()
def cluster() -> SimCluster:
    """A fresh default (EC2-like, 8 nodes) simulated cluster."""
    return SimCluster()


@pytest.fixture()
def zero_cluster() -> SimCluster:
    """A cluster whose cost model charges only pure compute."""
    return SimCluster(ec2_nodes(), ZERO_COST)


@pytest.fixture(scope="session")
def census_points() -> np.ndarray:
    return census_sample(3000, noise=0.35, num_profiles=8, seed=0)


@pytest.fixture(scope="session")
def blob_points():
    """Well-separated Gaussian blobs (points, labels)."""
    return gaussian_mixture(1200, 5, num_dims=3, spread=0.3, seed=5)
