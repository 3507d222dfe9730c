"""Tests for repro.forecast.track."""

from datetime import datetime, timedelta

import pytest

from repro.forecast.track import StormTrack, TrackFix, interpolate_waypoints
from repro.geo.coords import GeoPoint

T0 = datetime(2011, 8, 20, 19, 0)


def fix(hours: float, lat=25.0, lon=-75.0, wind=80.0, h=50.0, t=150.0):
    return TrackFix(
        time=T0 + timedelta(hours=hours),
        center=GeoPoint(lat, lon),
        max_wind_mph=wind,
        hurricane_radius_miles=h,
        tropical_radius_miles=t,
        motion_bearing_degrees=0.0,
        motion_speed_mph=10.0,
    )


class TestTrackFix:
    def test_radii_consistency_enforced(self):
        with pytest.raises(ValueError):
            fix(0, h=200.0, t=100.0)

    def test_negative_wind_rejected(self):
        with pytest.raises(ValueError):
            fix(0, wind=-5.0)

    def test_is_hurricane_threshold(self):
        assert fix(0, wind=74.0).is_hurricane
        assert not fix(0, wind=73.9).is_hurricane


class TestStormTrack:
    def test_requires_fixes(self):
        with pytest.raises(ValueError):
            StormTrack("Empty", [])

    def test_requires_name(self):
        with pytest.raises(ValueError):
            StormTrack("", [fix(0)])

    def test_chronological_order_enforced(self):
        with pytest.raises(ValueError):
            StormTrack("X", [fix(5), fix(0)])

    def test_duplicate_times_rejected(self):
        with pytest.raises(ValueError):
            StormTrack("X", [fix(0), fix(0)])

    def test_time_range(self):
        track = StormTrack("X", [fix(0), fix(6), fix(12)])
        assert [f.time for f in track.fixes()] == [
            T0 + timedelta(hours=h) for h in (0, 6, 12)
        ]
        assert len(track) == 3


class TestInterpolation:
    WAYPOINTS = (
        (0.0, 20.0, -70.0, 50.0, 0.0, 100.0),
        (24.0, 25.0, -75.0, 100.0, 60.0, 200.0),
        (48.0, 30.0, -78.0, 80.0, 40.0, 180.0),
    )

    def test_fix_count(self):
        fixes = interpolate_waypoints(self.WAYPOINTS, T0, 25)
        assert len(fixes) == 25

    def test_endpoints_exact(self):
        fixes = interpolate_waypoints(self.WAYPOINTS, T0, 25)
        assert fixes[0].center == GeoPoint(20.0, -70.0)
        assert fixes[-1].center == GeoPoint(30.0, -78.0)
        assert fixes[-1].time == T0 + timedelta(hours=48)

    def test_midpoint_values(self):
        fixes = interpolate_waypoints(self.WAYPOINTS, T0, 49)
        mid = fixes[24]  # exactly hour 24
        assert mid.center.lat == pytest.approx(25.0)
        assert mid.max_wind_mph == pytest.approx(100.0)

    def test_monotone_time(self):
        fixes = interpolate_waypoints(self.WAYPOINTS, T0, 30)
        times = [f.time for f in fixes]
        assert times == sorted(times)

    def test_motion_derived(self):
        fixes = interpolate_waypoints(self.WAYPOINTS, T0, 25)
        assert fixes[0].motion_speed_mph > 0
        assert fixes[-1].motion_speed_mph == 0.0  # terminal fix

    def test_too_few_waypoints(self):
        with pytest.raises(ValueError):
            interpolate_waypoints(self.WAYPOINTS[:1], T0, 10)

    def test_non_increasing_hours(self):
        bad = (self.WAYPOINTS[1], self.WAYPOINTS[0], self.WAYPOINTS[2])
        with pytest.raises(ValueError):
            interpolate_waypoints(bad, T0, 10)

    def test_too_few_fixes(self):
        with pytest.raises(ValueError):
            interpolate_waypoints(self.WAYPOINTS, T0, 1)

    def test_radii_stay_consistent(self):
        fixes = interpolate_waypoints(self.WAYPOINTS, T0, 40)
        for f in fixes:
            assert f.tropical_radius_miles >= f.hurricane_radius_miles
