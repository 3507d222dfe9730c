"""Tests for repro.stats.sampling."""

import numpy as np
import pytest

from repro.geo.coords import BoundingBox, GeoPoint
from repro.geo.distance import great_circle_miles
from repro.stats.sampling import sample_gaussian_cluster, sample_mixture

BOX = BoundingBox(30.0, -100.0, 40.0, -90.0)
CENTER = GeoPoint(35.0, -95.0)


class TestGaussianCluster:
    def test_spread_scale(self):
        rng = np.random.default_rng(1)
        lat, lon = sample_gaussian_cluster(rng, CENTER, 50.0, 500)
        distances = great_circle_miles(
            np.column_stack((lat, lon)), [[CENTER.lat, CENTER.lon]]
        )
        # Mean radial distance of a 2-D Gaussian is sigma * sqrt(pi/2).
        assert np.mean(distances) == pytest.approx(
            50.0 * np.sqrt(np.pi / 2), rel=0.15
        )

    def test_clamped_inside_box(self):
        rng = np.random.default_rng(2)
        tight = BoundingBox(34.9, -95.1, 35.1, -94.9)
        lat, lon = sample_gaussian_cluster(
            rng, CENTER, 500.0, 100, clamp=tight
        )
        assert len(lat) == 100
        assert all(tight.contains(GeoPoint(*p)) for p in zip(lat, lon))

    def test_invalid_spread(self):
        with pytest.raises(ValueError):
            sample_gaussian_cluster(np.random.default_rng(0), CENTER, 0.0, 5)

    def test_roughly_isotropic(self):
        rng = np.random.default_rng(3)
        lat, lon = sample_gaussian_cluster(rng, CENTER, 100.0, 2000)
        lat_spread = np.std(lat) * 69.05
        lon_spread = (
            np.std(lon)
            * 69.05
            * np.cos(np.radians(CENTER.lat))
        )
        assert lat_spread == pytest.approx(lon_spread, rel=0.1)


class TestMixture:
    def components(self):
        return [
            (GeoPoint(35.0, -95.0), 20.0, 3.0),
            (GeoPoint(45.0, -70.0), 20.0, 1.0),
        ]

    def test_total_count(self):
        rng = np.random.default_rng(4)
        lat, lon = sample_mixture(rng, self.components(), 400)
        assert len(lat) == len(lon) == 400

    def test_weights_respected(self):
        rng = np.random.default_rng(4)
        lat, lon = sample_mixture(rng, self.components(), 2000)
        near_first = np.count_nonzero(
            great_circle_miles(np.column_stack((lat, lon)), [[35.0, -95.0]])
            < 300
        )
        assert near_first / 2000 == pytest.approx(0.75, abs=0.05)

    def test_empty_components_rejected(self):
        with pytest.raises(ValueError):
            sample_mixture(np.random.default_rng(0), [], 10)

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValueError):
            sample_mixture(
                np.random.default_rng(0),
                [(CENTER, 10.0, 0.0)],
                10,
            )
