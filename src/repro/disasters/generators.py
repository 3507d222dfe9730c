"""Geo-generative models for the five disaster classes.

Each class is a seeded mixture of Gaussian clusters whose centres and
spreads encode where that hazard actually occurs:

* **Hurricanes** — coastal counties on the Gulf and lower Atlantic;
  moderately tight clusters (declarations repeat in the same coastal
  counties storm after storm).
* **Tornadoes** — the central plains ("tornado alley"), wider clusters.
* **Severe storms** — broad coverage of the central and eastern US.
* **Earthquakes** — the west coast and mountain seismic zones, plus the
  New Madrid zone; very diffuse.
* **Damaging wind** — reported at populated places nationwide with very
  tight repetition around each station, which is what drives the
  near-zero trained bandwidth of Table 1.

The cluster spreads were chosen so that cross-validated bandwidth
training (Table 1) reproduces the paper's ordering
``wind < storm < tornado < hurricane << earthquake``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..geo.coords import CONTINENTAL_US, GeoPoint
from ..stats.sampling import sample_mixture
from ..topology.cities import ALL_CITIES, City
from .events import DisasterCatalog, EventType

__all__ = ["EVENT_MODELS", "generate_events", "EventModel", "YEAR_RANGE"]

#: First and last year (inclusive) an event's year is drawn from.
YEAR_RANGE = (1970, 2010)


def _coastal_cities() -> List[City]:
    """Gulf and lower-Atlantic coastal gazetteer cities."""
    wanted = {
        "Houston, TX", "Galveston, TX", "Corpus Christi, TX",
        "Brownsville, TX", "New Orleans, LA", "Lake Charles, LA",
        "Baton Rouge, LA", "Gulfport, MS", "Biloxi, MS", "Mobile, AL",
        "Pensacola, FL", "Panama City, FL", "Tallahassee, FL",
        "Tampa, FL", "St. Petersburg, FL", "Fort Myers, FL",
        "Sarasota, FL", "Miami, FL", "Key West, FL",
        "Fort Lauderdale, FL", "West Palm Beach, FL", "Melbourne, FL",
        "Daytona Beach, FL", "Jacksonville, FL", "Savannah, GA",
        "Charleston, SC", "Myrtle Beach, SC", "Wilmington, NC",
        "Norfolk, VA", "Virginia Beach, VA", "Atlantic City, NJ",
        "New York, NY", "Providence, RI", "New Bedford, MA",
    }
    return [c for c in ALL_CITIES if c.key in wanted]


def _plains_cities() -> List[City]:
    """Tornado-alley gazetteer cities."""
    wanted_states = {"OK", "KS", "NE", "TX", "MO", "AR", "IA", "SD"}
    cities = [c for c in ALL_CITIES if c.state in wanted_states]
    # Weight toward the classic alley core.
    core = {"Oklahoma City, OK", "Tulsa, OK", "Wichita, KS", "Moore, OK"}
    return sorted(cities, key=lambda c: (c.key not in core, c.key))


def _seismic_centers() -> List[Tuple[GeoPoint, float, float]]:
    """(center, spread_miles, weight) components for earthquakes."""
    return [
        (GeoPoint(34.05, -118.24), 320.0, 4.0),   # southern California
        (GeoPoint(37.77, -122.42), 300.0, 4.0),   # Bay Area
        (GeoPoint(47.61, -122.33), 340.0, 2.0),   # Cascadia
        (GeoPoint(40.76, -111.89), 380.0, 1.0),   # Wasatch
        (GeoPoint(44.50, -110.50), 390.0, 0.7),   # Yellowstone
        (GeoPoint(36.58, -89.59), 360.0, 0.8),    # New Madrid
        (GeoPoint(39.53, -119.81), 340.0, 1.2),   # Nevada
    ]


class EventModel:
    """A mixture model for one event class."""

    def __init__(
        self,
        event_type: str,
        components: Sequence[Tuple[GeoPoint, float, float]],
    ) -> None:
        if event_type not in EventType.ALL:
            raise ValueError(f"unknown event type {event_type!r}")
        if not components:
            raise ValueError("model needs at least one component")
        self.event_type = event_type
        self.components = list(components)

    def sample(
        self, rng: "np.random.Generator", count: int
    ) -> DisasterCatalog:
        """Draw ``count`` events with uniform years over
        :data:`YEAR_RANGE`."""
        lat, lon = sample_mixture(
            rng, self.components, count, clamp=CONTINENTAL_US
        )
        years = rng.integers(YEAR_RANGE[0], YEAR_RANGE[1] + 1, size=count)
        return DisasterCatalog(self.event_type, lat, lon, years)


def _hurricane_model() -> EventModel:
    components = [
        (city.location, 165.0, 1.0 + city.population / 1e6)
        for city in _coastal_cities()
    ]
    return EventModel(EventType.FEMA_HURRICANE, components)


def _tornado_model() -> EventModel:
    components = [(city.location, 70.0, 1.0) for city in _plains_cities()]
    return EventModel(EventType.FEMA_TORNADO, components)


def _storm_model() -> EventModel:
    # Severe storms hit the central and southeastern US hardest; county
    # clusters east of the Rockies, weighted toward the south-central
    # storm corridor and fading with latitude (Figure 4-C's shape).
    components = []
    for city in ALL_CITIES:
        if city.location.lon <= -105.0:
            continue
        weight = 1.0
        if city.location.lat < 40.0:
            weight *= 4.0
        if -103.0 < city.location.lon < -85.0:
            weight *= 3.0
        components.append((city.location, 28.0, weight))
    return EventModel(EventType.FEMA_STORM, components)


def _earthquake_model() -> EventModel:
    return EventModel(EventType.NOAA_EARTHQUAKE, _seismic_centers())


def _wind_model() -> EventModel:
    # Wind damage reports recur at the same populated places, strongly
    # concentrated in the convective-storm belt (plains and south); the
    # northern tier and the west coast see an order of magnitude less,
    # matching the structure of Figure 4-E.
    plains_states = {"OK", "KS", "NE", "TX", "MO", "IA", "AR"}
    south_states = {"LA", "MS", "AL", "GA", "TN", "KY", "SC", "NC", "FL"}
    components = []
    for city in ALL_CITIES:
        weight = 0.04 + np.sqrt(city.population) / 12000.0
        if city.state in plains_states:
            weight *= 14.0
        elif city.state in south_states:
            weight *= 7.0
        elif city.location.lon < -114.0:
            weight *= 0.1  # far west: rare convective wind
        elif city.location.lat > 43.0:
            weight *= 0.25
        components.append((city.location, 4.0, float(weight)))
    return EventModel(EventType.NOAA_WIND, components)


#: Model per event class.
EVENT_MODELS: Dict[str, EventModel] = {
    EventType.FEMA_HURRICANE: _hurricane_model(),
    EventType.FEMA_TORNADO: _tornado_model(),
    EventType.FEMA_STORM: _storm_model(),
    EventType.NOAA_EARTHQUAKE: _earthquake_model(),
    EventType.NOAA_WIND: _wind_model(),
}


def generate_events(event_type: str, count: int, seed: int) -> DisasterCatalog:
    """Generate a seeded catalog for one event class.

    Raises:
        ValueError: for unknown types or negative counts.
    """
    if event_type not in EVENT_MODELS:
        raise ValueError(f"unknown event type {event_type!r}")
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = np.random.default_rng(seed)
    return EVENT_MODELS[event_type].sample(rng, count)
