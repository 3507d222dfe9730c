"""Tests for repro.geo.coords."""

import math

import pytest

from repro.geo.coords import (
    CONTINENTAL_US,
    BoundingBox,
    GeoPoint,
    validate_latitude,
    validate_longitude,
)


class TestValidation:
    def test_latitude_in_range(self):
        assert validate_latitude(45.0) == 45.0

    def test_latitude_boundaries(self):
        assert validate_latitude(90.0) == 90.0
        assert validate_latitude(-90.0) == -90.0

    def test_latitude_out_of_range(self):
        with pytest.raises(ValueError):
            validate_latitude(90.01)
        with pytest.raises(ValueError):
            validate_latitude(-91.0)

    def test_latitude_nan_rejected(self):
        with pytest.raises(ValueError):
            validate_latitude(float("nan"))

    def test_latitude_inf_rejected(self):
        with pytest.raises(ValueError):
            validate_latitude(float("inf"))

    def test_longitude_boundaries(self):
        assert validate_longitude(180.0) == 180.0
        assert validate_longitude(-180.0) == -180.0

    def test_longitude_out_of_range(self):
        with pytest.raises(ValueError):
            validate_longitude(180.5)


class TestGeoPoint:
    def test_construction(self):
        p = GeoPoint(40.71, -74.01)
        assert p.lat == 40.71
        assert p.lon == -74.01

    def test_invalid_latitude_raises(self):
        with pytest.raises(ValueError):
            GeoPoint(95.0, 0.0)

    def test_invalid_longitude_raises(self):
        with pytest.raises(ValueError):
            GeoPoint(0.0, 200.0)

    def test_hashable_and_equal(self):
        assert GeoPoint(1.0, 2.0) == GeoPoint(1.0, 2.0)
        assert hash(GeoPoint(1.0, 2.0)) == hash(GeoPoint(1.0, 2.0))

    def test_ordering_by_lat_then_lon(self):
        assert GeoPoint(1.0, 5.0) < GeoPoint(2.0, 0.0)
        assert GeoPoint(1.0, 1.0) < GeoPoint(1.0, 2.0)

    def test_as_radians(self):
        lat, lon = GeoPoint(90.0, -180.0).as_radians()
        assert lat == pytest.approx(math.pi / 2)
        assert lon == pytest.approx(-math.pi)

    def test_str_hemispheres(self):
        assert "N" in str(GeoPoint(10.0, 10.0))
        assert "S" in str(GeoPoint(-10.0, 10.0))
        assert "W" in str(GeoPoint(10.0, -10.0))


class TestBoundingBox:
    def test_contains_inside(self):
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        assert box.contains(GeoPoint(5.0, 5.0))

    def test_contains_edges_inclusive(self):
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        assert box.contains(GeoPoint(0.0, 0.0))
        assert box.contains(GeoPoint(10.0, 10.0))

    def test_excludes_outside(self):
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        assert not box.contains(GeoPoint(-0.1, 5.0))
        assert not box.contains(GeoPoint(5.0, 10.1))

    def test_inverted_south_north_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(10.0, 0.0, 0.0, 10.0)

    def test_inverted_west_east_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(0.0, 10.0, 10.0, 0.0)

    def test_dimensions(self):
        box = BoundingBox(10.0, 20.0, 30.0, 50.0)
        assert box.height_degrees == pytest.approx(20.0)
        assert box.width_degrees == pytest.approx(30.0)

    def test_center(self):
        box = BoundingBox(0.0, 0.0, 10.0, 20.0)
        assert box.center == GeoPoint(5.0, 10.0)

    def test_clip(self):
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        points = [GeoPoint(5.0, 5.0), GeoPoint(20.0, 20.0)]
        assert list(box.clip(points)) == [GeoPoint(5.0, 5.0)]

    def test_continental_us_contains_known_cities(self):
        assert CONTINENTAL_US.contains(GeoPoint(40.71, -74.01))   # NYC
        assert CONTINENTAL_US.contains(GeoPoint(47.61, -122.33))  # Seattle
        assert not CONTINENTAL_US.contains(GeoPoint(21.3, -157.8))  # Honolulu
