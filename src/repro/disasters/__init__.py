"""Disaster substrate: event catalogs, generative models, trained KDEs."""

from .catalog import (
    PAPER_BANDWIDTHS,
    all_event_kdes,
    catalog_of,
    event_kde,
    train_bandwidth,
)
from .events import (
    PAPER_EVENT_COUNTS,
    DisasterCatalog,
    DisasterEvent,
    EventType,
)
from .fema import (
    FEMA_TOTAL_DECLARATIONS,
    fema_hurricanes,
    fema_storms,
    fema_tornadoes,
)
from .generators import EVENT_MODELS, EventModel, generate_events
from .noaa import noaa_earthquakes, noaa_wind

__all__ = [
    "EventType",
    "DisasterEvent",
    "DisasterCatalog",
    "PAPER_EVENT_COUNTS",
    "EVENT_MODELS",
    "EventModel",
    "generate_events",
    "fema_hurricanes",
    "fema_tornadoes",
    "fema_storms",
    "FEMA_TOTAL_DECLARATIONS",
    "noaa_wind",
    "noaa_earthquakes",
    "catalog_of",
    "train_bandwidth",
    "event_kde",
    "all_event_kdes",
    "PAPER_BANDWIDTHS",
]
