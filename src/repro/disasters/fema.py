"""The FEMA emergency-declaration catalog (Section 4.3).

The paper observes 29,865 FEMA declarations between 1970 and 2010 for
the weather classes that threaten Internet infrastructure: 20,623 severe
storms, 6,437 tornadoes and 2,805 hurricanes.  We synthesize catalogs of
exactly those sizes from the per-class generative models.
"""

from __future__ import annotations

from functools import lru_cache

from .events import DisasterCatalog, EventType, PAPER_EVENT_COUNTS
from .generators import generate_events

__all__ = [
    "fema_hurricanes",
    "fema_tornadoes",
    "fema_storms",
    "FEMA_TOTAL_DECLARATIONS",
]

#: Total FEMA declarations across the three classes, per the paper.
FEMA_TOTAL_DECLARATIONS = 29_865

_SEEDS = {
    EventType.FEMA_HURRICANE: 1001,
    EventType.FEMA_TORNADO: 1002,
    EventType.FEMA_STORM: 1003,
}


@lru_cache(maxsize=None)
def fema_hurricanes() -> DisasterCatalog:
    """The 2,805 hurricane declarations."""
    return generate_events(
        EventType.FEMA_HURRICANE,
        PAPER_EVENT_COUNTS[EventType.FEMA_HURRICANE],
        _SEEDS[EventType.FEMA_HURRICANE],
    )


@lru_cache(maxsize=None)
def fema_tornadoes() -> DisasterCatalog:
    """The 6,437 tornado declarations."""
    return generate_events(
        EventType.FEMA_TORNADO,
        PAPER_EVENT_COUNTS[EventType.FEMA_TORNADO],
        _SEEDS[EventType.FEMA_TORNADO],
    )


@lru_cache(maxsize=None)
def fema_storms() -> DisasterCatalog:
    """The 20,623 severe-storm declarations."""
    return generate_events(
        EventType.FEMA_STORM,
        PAPER_EVENT_COUNTS[EventType.FEMA_STORM],
        _SEEDS[EventType.FEMA_STORM],
    )
