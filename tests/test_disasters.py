"""Tests for repro.disasters (events, generators, catalogs)."""

import pytest

from repro.disasters.catalog import (
    PAPER_BANDWIDTHS,
    PRETRAINED_BANDWIDTHS,
    catalog_of,
    event_kde,
    full_catalog,
)
from repro.disasters.events import (
    PAPER_EVENT_COUNTS,
    DisasterCatalog,
    DisasterEvent,
    EventType,
)
from repro.disasters.fema import FEMA_TOTAL_DECLARATIONS, fema_catalog
from repro.disasters.generators import EVENT_MODELS, generate_events
from repro.disasters.noaa import noaa_catalog
from repro.geo.coords import CONTINENTAL_US, BoundingBox, GeoPoint
from repro.geo.regions import CENTRAL_PLAINS, GULF_COAST


class TestEvents:
    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            DisasterEvent("typhoon", GeoPoint(30.0, -90.0), 2000)

    def test_implausible_year_rejected(self):
        with pytest.raises(ValueError):
            DisasterEvent(EventType.FEMA_STORM, GeoPoint(30.0, -90.0), 1492)

    def test_catalog_filters(self):
        events = [
            DisasterEvent(EventType.FEMA_STORM, GeoPoint(35.0, -95.0), 1980),
            DisasterEvent(EventType.FEMA_TORNADO, GeoPoint(36.0, -96.0), 1990),
            DisasterEvent(EventType.FEMA_STORM, GeoPoint(45.0, -70.0), 2000),
        ]
        catalog = DisasterCatalog(events)
        assert len(catalog.of_type(EventType.FEMA_STORM)) == 2
        assert len(catalog.between_years(1985, 1995)) == 1
        box = BoundingBox(30.0, -100.0, 40.0, -90.0)
        assert len(catalog.within(box)) == 2

    def test_of_type_unknown(self):
        with pytest.raises(ValueError):
            DisasterCatalog([]).of_type("typhoon")

    def test_between_years_inverted(self):
        with pytest.raises(ValueError):
            DisasterCatalog([]).between_years(2000, 1990)

    def test_within_bad_type(self):
        with pytest.raises(TypeError):
            DisasterCatalog([]).within("texas")

    def test_counts_by_type(self):
        events = [
            DisasterEvent(EventType.FEMA_STORM, GeoPoint(35.0, -95.0), 1980),
            DisasterEvent(EventType.FEMA_STORM, GeoPoint(36.0, -96.0), 1981),
        ]
        assert DisasterCatalog(events).counts_by_type() == {
            EventType.FEMA_STORM: 2
        }

    def test_merged_with(self):
        a = DisasterCatalog(
            [DisasterEvent(EventType.FEMA_STORM, GeoPoint(35.0, -95.0), 1980)]
        )
        b = DisasterCatalog(
            [DisasterEvent(EventType.NOAA_WIND, GeoPoint(36.0, -96.0), 1981)]
        )
        assert len(a.merged_with(b)) == 2


class TestGenerators:
    def test_models_for_all_classes(self):
        assert set(EVENT_MODELS) == set(EventType.ALL)

    def test_counts_exact(self):
        catalog = generate_events(EventType.FEMA_TORNADO, 100, seed=1)
        assert len(catalog) == 100

    def test_deterministic(self):
        a = generate_events(EventType.FEMA_STORM, 50, seed=9)
        b = generate_events(EventType.FEMA_STORM, 50, seed=9)
        assert a.locations() == b.locations()

    def test_seed_changes_output(self):
        a = generate_events(EventType.FEMA_STORM, 50, seed=1)
        b = generate_events(EventType.FEMA_STORM, 50, seed=2)
        assert a.locations() != b.locations()

    def test_events_inside_us(self):
        catalog = generate_events(EventType.NOAA_WIND, 300, seed=3)
        assert all(CONTINENTAL_US.contains(p) for p in catalog.locations())

    def test_years_in_range(self):
        catalog = generate_events(
            EventType.FEMA_HURRICANE, 100, seed=4, year_range=(1980, 1990)
        )
        assert all(1980 <= e.year <= 1990 for e in catalog)

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            generate_events("typhoon", 10, seed=0)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            generate_events(EventType.NOAA_WIND, -5, seed=0)

    def test_hurricanes_coastal(self):
        catalog = generate_events(EventType.FEMA_HURRICANE, 500, seed=5)
        coastal = sum(
            1
            for p in catalog.locations()
            if GULF_COAST.contains(p)
            or p.lon > -83.0  # Atlantic seaboard
        )
        assert coastal / 500 > 0.5

    def test_tornadoes_in_plains(self):
        catalog = generate_events(EventType.FEMA_TORNADO, 500, seed=6)
        plains = sum(
            1 for p in catalog.locations() if CENTRAL_PLAINS.contains(p)
        )
        assert plains / 500 > 0.4

    def test_earthquakes_western(self):
        catalog = generate_events(EventType.NOAA_EARTHQUAKE, 500, seed=7)
        west = sum(1 for p in catalog.locations() if p.lon < -100.0)
        assert west / 500 > 0.6


class TestCorpusCatalogs:
    def test_paper_counts(self):
        for event_type, count in PAPER_EVENT_COUNTS.items():
            assert len(catalog_of(event_type)) == count

    def test_fema_total(self):
        assert len(fema_catalog()) == FEMA_TOTAL_DECLARATIONS

    def test_noaa_total(self):
        assert len(noaa_catalog()) == (
            PAPER_EVENT_COUNTS[EventType.NOAA_WIND]
            + PAPER_EVENT_COUNTS[EventType.NOAA_EARTHQUAKE]
        )

    def test_full_catalog_total(self):
        assert len(full_catalog()) == sum(PAPER_EVENT_COUNTS.values())

    def test_unknown_catalog(self):
        with pytest.raises(ValueError):
            catalog_of("typhoon")


class TestBandwidths:
    def test_pretrained_cover_all_classes(self):
        assert set(PRETRAINED_BANDWIDTHS) == set(EventType.ALL)
        assert set(PAPER_BANDWIDTHS) == set(EventType.ALL)

    def test_pretrained_ordering_matches_paper(self):
        """The reproduced Table 1 ordering: wind < storm < tornado <
        hurricane < earthquake."""
        b = PRETRAINED_BANDWIDTHS
        assert (
            b[EventType.NOAA_WIND]
            < b[EventType.FEMA_STORM]
            < b[EventType.FEMA_TORNADO]
            < b[EventType.FEMA_HURRICANE]
            < b[EventType.NOAA_EARTHQUAKE]
        )

    def test_event_kde_uses_pretrained_default(self):
        kde = event_kde(EventType.FEMA_TORNADO)
        assert kde.bandwidth_miles == PRETRAINED_BANDWIDTHS[EventType.FEMA_TORNADO]

    def test_event_kde_override(self):
        kde = event_kde(EventType.FEMA_TORNADO, 123.0)
        assert kde.bandwidth_miles == 123.0

    def test_kde_peaks_in_expected_regions(self):
        quake = event_kde(EventType.NOAA_EARTHQUAKE)
        west = quake.density(GeoPoint(36.0, -118.0))
        east = quake.density(GeoPoint(40.0, -75.0))
        assert west > 5 * east
