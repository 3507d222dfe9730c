"""Tests for repro.geo.regions."""

import pytest

from repro.geo.coords import BoundingBox, GeoPoint
from repro.geo.regions import (
    CENTRAL_PLAINS,
    GULF_COAST,
    Region,
    STATE_BOXES,
    WEST_COAST,
    states_region,
)


class TestRegion:
    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            Region("empty", ())

    def test_contains_any_box(self):
        region = Region(
            "two",
            (
                BoundingBox(0.0, 0.0, 1.0, 1.0),
                BoundingBox(5.0, 5.0, 6.0, 6.0),
            ),
        )
        assert region.contains(GeoPoint(0.5, 0.5))
        assert region.contains(GeoPoint(5.5, 5.5))
        assert not region.contains(GeoPoint(3.0, 3.0))


class TestNamedRegions:
    def test_new_orleans_in_gulf(self):
        assert GULF_COAST.contains(GeoPoint(29.95, -90.07))

    def test_oklahoma_city_in_plains(self):
        assert CENTRAL_PLAINS.contains(GeoPoint(35.47, -97.52))

    def test_san_francisco_on_west_coast(self):
        assert WEST_COAST.contains(GeoPoint(37.77, -122.42))

    def test_boston_not_in_gulf(self):
        assert not GULF_COAST.contains(GeoPoint(42.36, -71.06))


class TestStates:
    def test_all_codes_two_letters(self):
        for code in STATE_BOXES:
            assert len(code) == 2
            assert code.isupper()

    def test_states_region_contains_member_states(self):
        region = states_region(["TX", "OK"])
        assert region.contains(GeoPoint(35.47, -97.52))   # OKC
        assert region.contains(GeoPoint(29.76, -95.37))   # Houston
        assert not region.contains(GeoPoint(40.71, -74.01))  # NYC

    def test_states_region_unknown_code(self):
        with pytest.raises(KeyError):
            states_region(["TX", "ZZ"])

    def test_states_region_name_sorted(self):
        region = states_region(["TX", "OK"])
        assert region.name == "states:OK+TX"
