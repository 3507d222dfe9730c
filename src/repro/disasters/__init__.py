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
from .generators import EVENT_MODELS, EventModel, generate_events

__all__ = [
    "EventType",
    "DisasterEvent",
    "DisasterCatalog",
    "PAPER_EVENT_COUNTS",
    "EVENT_MODELS",
    "EventModel",
    "generate_events",
    "catalog_of",
    "train_bandwidth",
    "event_kde",
    "all_event_kdes",
    "PAPER_BANDWIDTHS",
]
