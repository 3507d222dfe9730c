"""Tests for repro.geo.distance."""

import numpy as np
import pytest

from repro.geo.coords import GeoPoint
from repro.geo.distance import (
    EARTH_RADIUS_MILES,
    destination_point,
    great_circle_miles,
    haversine_miles,
    interpolate_great_circle,
)

NYC = GeoPoint(40.71, -74.01)
LA = GeoPoint(34.05, -118.24)
CHICAGO = GeoPoint(41.88, -87.63)


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_miles(NYC, NYC) == 0.0

    def test_nyc_la_known_distance(self):
        # Great-circle NYC-LA is ~2450 statute miles.
        assert haversine_miles(NYC, LA) == pytest.approx(2450.0, rel=0.02)

    def test_symmetry(self):
        assert haversine_miles(NYC, LA) == pytest.approx(
            haversine_miles(LA, NYC)
        )

    def test_triangle_inequality(self):
        direct = haversine_miles(NYC, LA)
        via = haversine_miles(NYC, CHICAGO) + haversine_miles(CHICAGO, LA)
        assert direct <= via + 1e-9

    def test_antipodal_is_half_circumference(self):
        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(0.0, 180.0)
        assert haversine_miles(a, b) == pytest.approx(
            np.pi * EARTH_RADIUS_MILES, rel=1e-6
        )


def rows(*points):
    return np.array([(p.lat, p.lon) for p in points]).reshape(-1, 2)


class TestMatrixForms:
    def test_pairwise_matches_scalar(self):
        points = [NYC, LA, CHICAGO]
        matrix = great_circle_miles(rows(*points), rows(*points))
        for i, a in enumerate(points):
            for j, b in enumerate(points):
                assert matrix[i, j] == pytest.approx(
                    haversine_miles(a, b), abs=1e-6
                )

    def test_pairwise_empty(self):
        assert great_circle_miles(rows(), rows()).shape == (0, 0)

    def test_pairwise_diagonal_zero(self):
        matrix = great_circle_miles(rows(NYC, LA), rows(NYC, LA))
        assert matrix[0, 0] == 0.0
        assert matrix[1, 1] == 0.0

    def test_one_row_target_is_a_column(self):
        column = great_circle_miles(rows(NYC, LA, CHICAGO), rows(LA))
        assert column.shape == (3, 1)
        assert column[1, 0] == 0.0
        assert column[0, 0] == pytest.approx(haversine_miles(NYC, LA))

    @pytest.mark.parametrize("bad", [[40.0, -74.0], [[40.0, -74.0, 0.0]]])
    def test_non_latlon_rows_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\(N, 2\)"):
            great_circle_miles(bad, rows(NYC))
        with pytest.raises(ValueError, match=r"\(N, 2\)"):
            great_circle_miles(rows(NYC), bad)


class TestInterpolation:
    def test_endpoints(self):
        assert interpolate_great_circle(NYC, LA, 0.0) == NYC
        mid = interpolate_great_circle(NYC, LA, 1.0)
        assert haversine_miles(mid, LA) < 1e-6

    def test_midpoint_equidistant(self):
        mid = interpolate_great_circle(NYC, LA, 0.5)
        d1 = haversine_miles(NYC, mid)
        d2 = haversine_miles(mid, LA)
        assert d1 == pytest.approx(d2, rel=1e-9)

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            interpolate_great_circle(NYC, LA, 1.5)

    def test_same_point(self):
        assert interpolate_great_circle(NYC, NYC, 0.7) == NYC

    def test_antipodal_rejected(self):
        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(0.0, 180.0)
        with pytest.raises(ValueError):
            interpolate_great_circle(a, b, 0.5)


class TestDestination:
    def test_due_north(self):
        out = destination_point(GeoPoint(40.0, -100.0), 0.0, 69.05)
        assert out.lat == pytest.approx(41.0, abs=0.02)
        assert out.lon == pytest.approx(-100.0, abs=0.02)

    def test_round_trip_distance(self):
        out = destination_point(NYC, 123.0, 500.0)
        assert haversine_miles(NYC, out) == pytest.approx(500.0, rel=1e-6)

    def test_zero_distance(self):
        out = destination_point(NYC, 45.0, 0.0)
        assert haversine_miles(NYC, out) < 1e-9

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            destination_point(NYC, 0.0, -1.0)
