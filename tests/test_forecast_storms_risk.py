"""Tests for repro.forecast.storms and repro.forecast.risk."""

import numpy as np
import pytest

from repro.forecast.advisory import advisory_text
from repro.forecast.risk import (
    RHO_HURRICANE,
    RHO_TROPICAL,
    ForecastSnapshot,
    snapshot_from_advisory,
    snapshot_from_text,
    storm_scope,
)
from repro.forecast.storms import (
    PAPER_ADVISORY_COUNTS,
    case_study_storms,
    storm_advisories,
)
from repro.geo.coords import GeoPoint
from repro.geo.distance import destination_point


class TestStormTracks:
    def test_advisory_counts_match_paper(self):
        assert len(storm_advisories("Katrina")) == 61
        assert len(storm_advisories("Irene")) == 70
        assert len(storm_advisories("Sandy")) == 60

    def test_paper_counts_constant(self):
        assert PAPER_ADVISORY_COUNTS == {"Katrina": 61, "Irene": 70, "Sandy": 60}

    def test_unknown_storm(self):
        with pytest.raises(KeyError):
            storm_advisories("Bob")

    def test_katrina_peaks_category5(self):
        fixes = case_study_storms()["Katrina"].fixes()
        assert max(fix.max_wind_mph for fix in fixes) >= 155.0

    def test_irene_moves_north(self):
        fixes = case_study_storms()["Irene"].fixes()
        assert fixes[-1].center.lat > fixes[0].center.lat + 15

    def test_sandy_dates(self):
        start = case_study_storms()["Sandy"].fixes()[0].time
        assert start.year == 2012
        assert start.month == 10

    def test_katrina_dates_match_footnote(self):
        fixes = case_study_storms()["Katrina"].fixes()
        assert fixes[0].time.day == 23
        assert fixes[-1].time.day == 30

    def test_all_storms_parseable(self):
        """Every generated advisory must survive the NLP parser."""
        for name in case_study_storms():
            for advisory in storm_advisories(name):
                snapshot = snapshot_from_text(advisory_text(advisory))
                assert snapshot.tropical_radius_miles > 0

    def test_case_study_order(self):
        assert list(case_study_storms()) == ["Irene", "Katrina", "Sandy"]

    def test_advisory_numbering(self):
        advisories = storm_advisories("Sandy")
        assert [a.number for a in advisories] == list(range(1, 61))


class TestForecastSnapshot:
    CENTER = GeoPoint(30.0, -80.0)

    def snapshot(self):
        return ForecastSnapshot(
            center=self.CENTER,
            hurricane_radius_miles=50.0,
            tropical_radius_miles=150.0,
        )

    def test_zone_classification(self):
        snap = self.snapshot()
        inside_h = destination_point(self.CENTER, 90.0, 30.0)
        inside_t = destination_point(self.CENTER, 90.0, 100.0)
        outside = destination_point(self.CENTER, 90.0, 300.0)
        assert snap.zone_of(inside_h) == "hurricane"
        assert snap.zone_of(inside_t) == "tropical"
        assert snap.zone_of(outside) == "clear"

    def test_risk_values(self):
        snap = self.snapshot()
        edge_t = destination_point(self.CENTER, 0.0, 100.0)
        far = destination_point(self.CENTER, 0.0, 500.0)
        latlon = np.array([(p.lat, p.lon) for p in (self.CENTER, edge_t, far)])
        assert snap.risks_many(latlon).tolist() == [
            RHO_HURRICANE, RHO_TROPICAL, 0.0
        ]

    def test_paper_rho_values(self):
        assert RHO_TROPICAL == 50.0
        assert RHO_HURRICANE == 100.0

    def test_radii_validation(self):
        with pytest.raises(ValueError):
            ForecastSnapshot(self.CENTER, 200.0, 100.0)

    def test_rho_ordering_validation(self):
        with pytest.raises(ValueError):
            ForecastSnapshot(
                self.CENTER, 10.0, 50.0, rho_tropical=100.0, rho_hurricane=50.0
            )

    def test_snapshot_from_advisory(self):
        advisory = storm_advisories("Irene")[40]
        snap = snapshot_from_advisory(advisory)
        assert snap.center == advisory.center
        assert snap.tropical_radius_miles == advisory.tropical_radius_miles


class TestStormScope:
    def test_scope_levels(self):
        advisories = storm_advisories("Katrina")
        new_orleans = GeoPoint(29.95, -90.07)
        seattle = GeoPoint(47.61, -122.33)
        scope = storm_scope(advisories, [new_orleans, seattle])
        assert scope[new_orleans] == "hurricane"
        assert scope[seattle] == "clear"

    def test_tropical_only_location(self):
        advisories = storm_advisories("Katrina")
        # Far inland from the track but inside tropical radius at landfall.
        jackson = GeoPoint(32.30, -90.18)
        scope = storm_scope(advisories, [jackson])
        assert scope[jackson] in ("tropical", "hurricane")
