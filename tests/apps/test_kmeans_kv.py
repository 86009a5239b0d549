"""Tests for the record-at-a-time K-Means spec (§IV API path)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import KMeansBlockSpec, KMeansKVSpec, kmeans_reference, sse
from repro.core import (
    AsyncMapReduceSpec,
    DriverConfig,
    EngineBackend,
    IterationLoop,
)

from tests.inputs import gaussian_mixture


@pytest.fixture(scope="module")
def pts():
    points, _ = gaussian_mixture(400, 4, num_dims=3, spread=0.3, seed=5)
    return points


def _centroids(state, k):
    return np.stack([state[("c", j)] for j in range(k)])


class TestKMeansKV:
    def test_registered_as_async_spec(self, pts):
        spec = KMeansKVSpec(pts, 3, seed=0)
        assert isinstance(spec, AsyncMapReduceSpec)

    @pytest.mark.parametrize("mode", ["general", "eager"])
    def test_reaches_reference_quality(self, pts, mode):
        spec = KMeansKVSpec(pts, 4, num_partitions=3, threshold=1e-3, seed=2)
        res = IterationLoop(EngineBackend(spec),
                            DriverConfig(mode=mode)).run()
        got = sse(pts, _centroids(res.state, 4))
        ref = sse(pts, kmeans_reference(pts, 4, threshold=1e-3, seed=2))
        assert got <= 1.05 * ref
        assert res.converged

    def test_eager_fewer_global_iterations(self, pts):
        def run(mode):
            spec = KMeansKVSpec(pts, 4, num_partitions=3, threshold=1e-3,
                                seed=2)
            return IterationLoop(EngineBackend(spec),
                                 DriverConfig(mode=mode)).run()

        gen, eag = run("general"), run("eager")
        assert eag.global_iters < gen.global_iters

    def test_initial_state_uses_data_points(self, pts):
        spec = KMeansKVSpec(pts, 3, seed=7)
        state = spec.initial_state()
        for j in range(3):
            c = state[("c", j)]
            assert any(np.array_equal(c, p) for p in pts[:50]) or \
                (c == pts).all(axis=1).any()

    def test_partition_input_contains_centroids_and_points(self, pts):
        spec = KMeansKVSpec(pts, 3, num_partitions=4, seed=0)
        xs = spec.partition_input(0, spec.initial_state())
        tags = [k[0] for k, _ in xs]
        assert tags.count("c") == 3
        assert tags.count("pt") > 0

    def test_validation(self, pts):
        with pytest.raises(ValueError):
            KMeansKVSpec(pts, 0)
        with pytest.raises(ValueError):
            KMeansKVSpec(np.zeros((0, 2)), 1)

    @pytest.mark.parametrize("threshold", [0, -1])
    def test_rejects_nonpositive_threshold(self, pts, threshold):
        """The block spec's check: a threshold no shift can fall below
        would never let a local or global round converge."""
        with pytest.raises(ValueError, match="threshold"):
            KMeansKVSpec(pts, 3, threshold=threshold)
        with pytest.raises(ValueError, match="threshold"):
            KMeansBlockSpec(pts, 3, threshold=threshold)

    def test_local_convergence_definition(self, pts):
        spec = KMeansKVSpec(pts, 2, threshold=0.5, seed=1)
        state = spec.initial_state()
        same = dict(state)
        assert spec.local_converged(state, same)
        moved = dict(state)
        moved[("c", 0)] = state[("c", 0)] + 10.0
        assert not spec.local_converged(state, moved)
