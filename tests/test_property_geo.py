"""Property-based tests for the geo substrate."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.coords import GeoPoint
from repro.geo.distance import (
    EARTH_RADIUS_MILES,
    destination_point,
    haversine_miles,
    interpolate_great_circle,
)
from tests.conftest import examples

lats = st.floats(min_value=-85.0, max_value=85.0, allow_nan=False)
lons = st.floats(min_value=-179.0, max_value=179.0, allow_nan=False)
points = st.builds(GeoPoint, lats, lons)


class TestHaversineProperties:
    @given(points, points)
    def test_symmetry(self, a, b):
        assert haversine_miles(a, b) == haversine_miles(b, a)

    @given(points)
    def test_identity(self, p):
        assert haversine_miles(p, p) == 0.0

    @given(points, points)
    def test_non_negative_and_bounded(self, a, b):
        d = haversine_miles(a, b)
        assert 0.0 <= d <= math.pi * EARTH_RADIUS_MILES + 1e-6

    @given(points, points, points)
    @settings(max_examples=examples(50))
    def test_triangle_inequality(self, a, b, c):
        assert haversine_miles(a, c) <= (
            haversine_miles(a, b) + haversine_miles(b, c) + 1e-6
        )


class TestDestinationProperties:
    @given(points, st.floats(0.0, 360.0), st.floats(0.0, 3000.0))
    @settings(max_examples=examples(50))
    def test_distance_preserved(self, origin, bearing, distance):
        out = destination_point(origin, bearing, distance)
        measured = haversine_miles(origin, out)
        assert abs(measured - distance) < 1e-4 * max(1.0, distance)


class TestInterpolationProperties:
    @given(points, points, st.floats(0.0, 1.0))
    @settings(max_examples=examples(50))
    def test_on_segment(self, a, b, fraction):
        total = haversine_miles(a, b)
        if total > EARTH_RADIUS_MILES * 3.0:
            return  # near-antipodal pairs are rejected by design
        mid = interpolate_great_circle(a, b, fraction)
        d1 = haversine_miles(a, mid)
        d2 = haversine_miles(mid, b)
        assert abs((d1 + d2) - total) < 1e-4 * max(1.0, total)
