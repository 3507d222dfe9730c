"""The NOAA event catalog (Section 4.3).

Between 1970 and 2010 the paper's NOAA data contains 143,847
damaging-wind events and 2,267 earthquakes.  We synthesize catalogs of
exactly those sizes.
"""

from __future__ import annotations

from functools import lru_cache

from .events import DisasterCatalog, EventType, PAPER_EVENT_COUNTS
from .generators import generate_events

__all__ = ["noaa_wind", "noaa_earthquakes"]

_SEEDS = {
    EventType.NOAA_WIND: 2001,
    EventType.NOAA_EARTHQUAKE: 2002,
}


@lru_cache(maxsize=None)
def noaa_wind() -> DisasterCatalog:
    """The 143,847 damaging-wind events."""
    return generate_events(
        EventType.NOAA_WIND,
        PAPER_EVENT_COUNTS[EventType.NOAA_WIND],
        _SEEDS[EventType.NOAA_WIND],
    )


@lru_cache(maxsize=None)
def noaa_earthquakes() -> DisasterCatalog:
    """The 2,267 earthquake events."""
    return generate_events(
        EventType.NOAA_EARTHQUAKE,
        PAPER_EVENT_COUNTS[EventType.NOAA_EARTHQUAKE],
        _SEEDS[EventType.NOAA_EARTHQUAKE],
    )
