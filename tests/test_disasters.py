"""Tests for repro.disasters (events, generators, catalogs)."""

import pytest

from repro.disasters.catalog import (
    PAPER_BANDWIDTHS,
    PRETRAINED_BANDWIDTHS,
    catalog_of,
    event_kde,
)
from repro.disasters.events import (
    PAPER_EVENT_COUNTS,
    DisasterCatalog,
    DisasterEvent,
    EventType,
)
from repro.disasters.generators import (
    EVENT_MODELS,
    YEAR_RANGE,
    generate_events,
)
from repro.geo.coords import CONTINENTAL_US, GeoPoint
from repro.geo.regions import CENTRAL_PLAINS, GULF_COAST


def _locations(catalog):
    return [GeoPoint(lat, lon) for lat, lon in zip(catalog.lat, catalog.lon)]


class TestEvents:
    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            DisasterEvent("typhoon", GeoPoint(30.0, -90.0), 2000)

    def test_implausible_year_rejected(self):
        with pytest.raises(ValueError):
            DisasterEvent(EventType.FEMA_STORM, GeoPoint(30.0, -90.0), 1492)


class TestCatalogColumns:
    """A catalog checks every row for what one event and its point
    check."""

    GOOD = ([30.0, 31.0], [-90.0, -91.0], [2000, 2001])

    def test_valid_columns(self):
        catalog = DisasterCatalog(EventType.FEMA_STORM, *self.GOOD)
        assert len(catalog) == 2
        assert catalog.latlon().tolist() == [[30.0, -90.0], [31.0, -91.0]]
        assert not catalog.lat.flags.writeable

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown event type"):
            DisasterCatalog("typhoon", *self.GOOD)

    @pytest.mark.parametrize(
        "lat, lon, year, message",
        [
            ([30.0, float("nan")], [-90.0, -91.0], [2000, 2001], "latitude"),
            ([30.0, 90.5], [-90.0, -91.0], [2000, 2001], "latitude"),
            ([30.0, 31.0], [-90.0, float("inf")], [2000, 2001], "longitude"),
            ([30.0, 31.0], [-90.0, -180.5], [2000, 2001], "longitude"),
            ([30.0, 31.0], [-90.0, -91.0], [2000, 1492], "1492"),
            ([30.0, 31.0], [-90.0, -91.0], [2101, 2000], "2101"),
            ([30.0], [-90.0, -91.0], [2000, 2001], "equal lengths"),
        ],
    )
    def test_bad_row_rejected(self, lat, lon, year, message):
        with pytest.raises(ValueError, match=message):
            DisasterCatalog(EventType.FEMA_STORM, lat, lon, year)


class TestGenerators:
    def test_models_for_all_classes(self):
        assert set(EVENT_MODELS) == set(EventType.ALL)

    def test_counts_exact(self):
        catalog = generate_events(EventType.FEMA_TORNADO, 100, seed=1)
        assert len(catalog) == 100

    def test_deterministic(self):
        a = generate_events(EventType.FEMA_STORM, 50, seed=9)
        b = generate_events(EventType.FEMA_STORM, 50, seed=9)
        assert a.lat.tobytes() == b.lat.tobytes()
        assert a.lon.tobytes() == b.lon.tobytes()

    def test_seed_changes_output(self):
        a = generate_events(EventType.FEMA_STORM, 50, seed=1)
        b = generate_events(EventType.FEMA_STORM, 50, seed=2)
        assert a.lat.tobytes() != b.lat.tobytes()

    def test_events_inside_us(self):
        catalog = generate_events(EventType.NOAA_WIND, 300, seed=3)
        assert all(CONTINENTAL_US.contains(p) for p in _locations(catalog))

    def test_years_in_range(self):
        catalog = generate_events(EventType.FEMA_HURRICANE, 100, seed=4)
        first, last = YEAR_RANGE
        assert all(first <= year <= last for year in catalog.year)

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
            for p in _locations(catalog)
            if GULF_COAST.contains(p)
            or p.lon > -83.0  # Atlantic seaboard
        )
        assert coastal / 500 > 0.5

    def test_tornadoes_in_plains(self):
        catalog = generate_events(EventType.FEMA_TORNADO, 500, seed=6)
        plains = sum(
            1 for p in _locations(catalog) if CENTRAL_PLAINS.contains(p)
        )
        assert plains / 500 > 0.4

    def test_earthquakes_western(self):
        catalog = generate_events(EventType.NOAA_EARTHQUAKE, 500, seed=7)
        west = sum(1 for p in _locations(catalog) if p.lon < -100.0)
        assert west / 500 > 0.6


class TestCorpusCatalogs:
    def test_paper_counts(self):
        for event_type, count in PAPER_EVENT_COUNTS.items():
            assert len(catalog_of(event_type)) == count

    def test_fema_total(self):
        fema = (
            EventType.FEMA_HURRICANE,
            EventType.FEMA_TORNADO,
            EventType.FEMA_STORM,
        )
        # Section 4.3: 29,865 FEMA declarations between 1970 and 2010.
        assert sum(len(catalog_of(t)) for t in fema) == 29_865

    def test_noaa_total(self):
        noaa = (EventType.NOAA_WIND, EventType.NOAA_EARTHQUAKE)
        assert sum(len(catalog_of(t)) for t in noaa) == (
            PAPER_EVENT_COUNTS[EventType.NOAA_WIND]
            + PAPER_EVENT_COUNTS[EventType.NOAA_EARTHQUAKE]
        )

    def test_full_catalog_total(self):
        assert sum(len(catalog_of(t)) for t in EventType.ALL) == sum(
            PAPER_EVENT_COUNTS.values()
        )

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

    def test_kde_peaks_in_expected_regions(self):
        quake = event_kde(EventType.NOAA_EARTHQUAKE)
        west = quake.density(GeoPoint(36.0, -118.0))
        east = quake.density(GeoPoint(40.0, -75.0))
        assert west > 5 * east
