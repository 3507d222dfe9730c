"""Tests for repro.stats.kde."""

import math

import numpy as np
import pytest

from repro.geo.coords import CONTINENTAL_US, GeoPoint
from repro.geo.grid import GeoGrid
from repro.stats import kde as kde_module
from repro.stats.kde import GaussianKDE, points_to_array

CLUSTER = [
    GeoPoint(35.0, -95.0),
    GeoPoint(35.1, -95.1),
    GeoPoint(34.9, -94.9),
]
CLUSTER_LATLON = points_to_array(CLUSTER)
FAR_AWAY = GeoPoint(45.0, -70.0)


class TestConstruction:
    def test_empty_events_rejected(self):
        with pytest.raises(ValueError):
            GaussianKDE(points_to_array([]), 10.0)

    def test_non_positive_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            GaussianKDE(CLUSTER_LATLON, 0.0)
        with pytest.raises(ValueError):
            GaussianKDE(CLUSTER_LATLON, -5.0)

    def test_nan_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            GaussianKDE(CLUSTER_LATLON, float("nan"))

    def test_n_events(self):
        assert GaussianKDE(CLUSTER_LATLON, 10.0).n_events == 3


class TestDensity:
    def test_higher_near_events(self):
        kde = GaussianKDE(CLUSTER_LATLON, 30.0)
        assert kde.density(CLUSTER[0]) > kde.density(FAR_AWAY)

    def test_single_event_peak_value(self):
        # At the event itself, density = 1 / (2 pi sigma^2).
        sigma = 25.0
        kde = GaussianKDE(CLUSTER_LATLON[:1], sigma)
        expected = 1.0 / (2.0 * math.pi * sigma**2)
        assert kde.density(CLUSTER[0]) == pytest.approx(expected, rel=1e-9)

    def test_density_many_matches_scalar(self):
        kde = GaussianKDE(CLUSTER_LATLON, 30.0)
        many = kde.density_array(points_to_array([CLUSTER[0], FAR_AWAY]))
        assert many[0] == pytest.approx(kde.density(CLUSTER[0]))
        assert many[1] == pytest.approx(kde.density(FAR_AWAY))

    def test_density_many_empty(self):
        kde = GaussianKDE(CLUSTER_LATLON, 30.0)
        assert kde.density_array(points_to_array([])).shape == (0,)

    def test_chunking_consistent(self, monkeypatch):
        points = [GeoPoint(30.0 + i * 0.1, -100.0) for i in range(50)]
        monkeypatch.setattr(kde_module, "_CHUNK_ROWS", 7)
        small = GaussianKDE(CLUSTER_LATLON, 30.0)
        monkeypatch.setattr(kde_module, "_CHUNK_ROWS", 1000)
        large = GaussianKDE(CLUSTER_LATLON, 30.0)
        latlon = points_to_array(points)
        np.testing.assert_allclose(
            small.density_array(latlon), large.density_array(latlon)
        )

    def test_density_array_shape_validation(self):
        kde = GaussianKDE(CLUSTER_LATLON, 30.0)
        with pytest.raises(ValueError):
            kde.density_array(np.zeros((3, 3)))

    def test_wider_bandwidth_flattens(self):
        narrow = GaussianKDE(CLUSTER_LATLON, 5.0)
        wide = GaussianKDE(CLUSTER_LATLON, 500.0)
        ratio_narrow = narrow.density(CLUSTER[0]) / max(
            narrow.density(FAR_AWAY), 1e-300
        )
        ratio_wide = wide.density(CLUSTER[0]) / wide.density(FAR_AWAY)
        assert ratio_narrow > ratio_wide

    def test_integrates_to_one_approximately(self):
        # Integrate over a fine local grid: cell density * cell area.
        kde = GaussianKDE(points_to_array([GeoPoint(39.0, -95.0)]), 20.0)
        grid = GeoGrid(
            type(CONTINENTAL_US)(37.0, -98.0, 41.0, -92.0), 120, 120
        )
        field = kde.evaluate_grid(grid)
        # Cell area in sq miles: 69.05 miles/deg lat, cos-lat scaled lon.
        cell_h = grid.cell_height_degrees * 69.05
        cell_w = grid.cell_width_degrees * 69.05 * math.cos(math.radians(39.0))
        mass = field.total_mass() * cell_h * cell_w
        assert mass == pytest.approx(1.0, rel=0.02)


class TestLogDensity:
    def test_matches_log_of_density(self):
        kde = GaussianKDE(CLUSTER_LATLON, 30.0)
        logs = kde.log_density_many([CLUSTER[0]])
        assert logs[0] == pytest.approx(math.log(kde.density(CLUSTER[0])))

    def test_floor_keeps_finite(self):
        kde = GaussianKDE(CLUSTER_LATLON, 1.0)
        # Thousands of miles away: raw density underflows to 0.
        logs = kde.log_density_many([GeoPoint(70.0, 170.0)])
        assert np.isfinite(logs[0])


class TestTruncation:
    def test_invalid_cutoff_rejected(self):
        with pytest.raises(ValueError):
            GaussianKDE(CLUSTER_LATLON, 10.0, cutoff_sigmas=0.0)
        with pytest.raises(ValueError):
            GaussianKDE(CLUSTER_LATLON, 10.0, cutoff_sigmas=-3.0)
        with pytest.raises(ValueError):
            GaussianKDE(CLUSTER_LATLON, 10.0, cutoff_sigmas=float("nan"))

    def test_exact_mode_has_no_index(self):
        kde = GaussianKDE(CLUSTER_LATLON, 10.0, cutoff_sigmas=None)
        assert kde.cutoff_sigmas is None
        assert kde.density(CLUSTER[0]) > 0.0

    def test_truncated_matches_exact_on_spread_events(self):
        rng = np.random.default_rng(11)
        events = np.column_stack(
            [rng.uniform(25.0, 49.0, 400), rng.uniform(-124.0, -67.0, 400)]
        )
        queries = np.column_stack(
            [rng.uniform(25.0, 49.0, 150), rng.uniform(-124.0, -67.0, 150)]
        )
        exact = GaussianKDE(events, 40.0, cutoff_sigmas=None)
        fast = GaussianKDE(events, 40.0, cutoff_sigmas=8.0)
        bound = math.exp(-32.0) / (2.0 * math.pi * 40.0**2)
        np.testing.assert_allclose(
            fast.density_array(queries),
            exact.density_array(queries),
            rtol=1e-9,
            atol=bound,
        )

    def test_far_query_beyond_cutoff_is_zero(self):
        # ~1800 miles from the cluster with a 5-mile bandwidth: every
        # event is far outside 8 sigma, so the truncated sum is exactly
        # zero (the dense value itself underflows to 0 there too).
        kde = GaussianKDE(CLUSTER_LATLON, 5.0)
        assert kde.density(GeoPoint(48.0, -70.0)) == 0.0

    def test_holdout_log_density_matches_refit(self):
        rng = np.random.default_rng(5)
        events = [
            GeoPoint(float(lat), float(lon))
            for lat, lon in zip(
                rng.uniform(30.0, 45.0, 40), rng.uniform(-110.0, -80.0, 40)
            )
        ]
        kde = GaussianKDE(points_to_array(events), 35.0)
        held_out = np.array([3, 11, 27])
        train = [p for i, p in enumerate(events) if i not in set(held_out)]
        test = [events[i] for i in held_out]
        refit = GaussianKDE(points_to_array(train), 35.0, cutoff_sigmas=None)
        np.testing.assert_allclose(
            kde.holdout_log_density(held_out),
            refit.log_density_many(test),
            rtol=1e-12,
        )

    def test_holdout_needs_training_events(self):
        kde = GaussianKDE(CLUSTER_LATLON, 30.0)
        with pytest.raises(ValueError):
            kde.holdout_log_density(np.array([0, 1, 2]))

    def test_fingerprint_tracks_content(self):
        def fingerprint(*args, **kwargs):
            return GaussianKDE(*args, **kwargs).fingerprint

        base = fingerprint(CLUSTER_LATLON, 30.0)
        assert base == fingerprint(CLUSTER_LATLON, 30.0)
        assert base != fingerprint(CLUSTER_LATLON, 31.0)
        assert base != fingerprint(CLUSTER_LATLON, 30.0, cutoff_sigmas=None)
        assert base != fingerprint(CLUSTER_LATLON[:2], 30.0)


class TestHelpers:
    def test_points_to_array(self):
        arr = points_to_array(CLUSTER)
        assert arr.shape == (3, 2)
        assert arr[0, 0] == 35.0
        assert arr[0, 1] == -95.0

    def test_points_to_array_empty(self):
        arr = points_to_array([])
        assert arr.shape == (0, 2)
        assert arr.dtype == np.float64

    def test_evaluate_grid_shape(self):
        grid = GeoGrid(CONTINENTAL_US, 10, 20)
        field = GaussianKDE(CLUSTER_LATLON, 50.0).evaluate_grid(grid)
        assert field.values.shape == (10, 20)
        peak_location, _ = field.peak()
        # Peak cell should be near the cluster.
        assert abs(peak_location.lat - 35.0) < 2.0
        assert abs(peak_location.lon + 95.0) < 2.0
