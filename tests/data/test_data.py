"""Tests for the synthetic datasets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import CENSUS_DEFAULT_ROWS, CENSUS_DIMENSIONS, census_sample

from tests.inputs import gaussian_mixture


class TestCensus:
    def test_shape_defaults_match_paper(self):
        assert CENSUS_DIMENSIONS == 68
        assert CENSUS_DEFAULT_ROWS == 200_000
        data = census_sample(500)
        assert data.shape == (500, 68)

    def test_integer_codes(self):
        data = census_sample(300, seed=1)
        assert np.array_equal(data, np.round(data))
        assert data.min() >= 0

    def test_attribute_cardinalities_respected(self):
        data = census_sample(2000, seed=2)
        # first attribute is binary (cardinality 2)
        assert set(np.unique(data[:, 0])) <= {0.0, 1.0}

    def test_deterministic(self):
        a = census_sample(200, seed=3)
        b = census_sample(200, seed=3)
        assert np.array_equal(a, b)

    def test_seeds_differ(self):
        assert not np.array_equal(census_sample(200, seed=1),
                                  census_sample(200, seed=2))

    def test_clusterable_structure(self):
        # k-means on the census data must beat a single global centroid
        from repro.apps import kmeans_reference, sse

        data = census_sample(3000, noise=0.3, num_profiles=6, seed=0)
        cents = kmeans_reference(data, 6, threshold=0.01, seed=0)
        one = data.mean(0, keepdims=True)
        assert sse(data, cents) < 0.8 * sse(data, one)

    def test_noise_increases_spread(self):
        lo = census_sample(3000, noise=0.05, seed=0)
        hi = census_sample(3000, noise=0.9, seed=0)
        assert hi.var(axis=0).mean() > lo.var(axis=0).mean()

    def test_validation(self):
        with pytest.raises(ValueError):
            census_sample(0)
        with pytest.raises(ValueError):
            census_sample(10, noise=1.5)
        with pytest.raises(ValueError):
            census_sample(10, num_profiles=0)

    def test_custom_dims(self):
        assert census_sample(50, num_dims=10).shape == (50, 10)


class TestGaussianMixture:
    def test_shapes(self):
        pts, labels = gaussian_mixture(500, 4, num_dims=3, seed=0)
        assert pts.shape == (500, 3)
        assert labels.shape == (500,)
        assert set(np.unique(labels)) <= set(range(4))

    def test_separated_clusters_tight(self):
        pts, labels = gaussian_mixture(2000, 3, spread=0.1, box=20.0, seed=1)
        for c in range(3):
            members = pts[labels == c]
            assert members.std(axis=0).max() < 0.2

    def test_deterministic(self):
        a, _ = gaussian_mixture(100, 2, seed=7)
        b, _ = gaussian_mixture(100, 2, seed=7)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_mixture(2, 5)
        with pytest.raises(ValueError):
            gaussian_mixture(0, 1)
