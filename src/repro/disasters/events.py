"""Disaster event records and catalogs (Section 4.3).

The paper assembles five archival event classes: FEMA emergency
declarations for hurricanes, tornadoes and severe storms (county-level,
1970-2010), and NOAA-recorded damaging-wind and earthquake events.  A
:class:`DisasterCatalog` is an immutable list of :class:`DisasterEvent`
records with the filtering the risk pipeline needs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from ..geo.coords import GeoPoint

__all__ = ["EventType", "DisasterEvent", "DisasterCatalog", "PAPER_EVENT_COUNTS"]


class EventType:
    """The five event classes studied in the paper."""

    FEMA_HURRICANE = "fema-hurricane"
    FEMA_TORNADO = "fema-tornado"
    FEMA_STORM = "fema-storm"
    NOAA_EARTHQUAKE = "noaa-earthquake"
    NOAA_WIND = "noaa-wind"

    ALL = (
        FEMA_HURRICANE,
        FEMA_TORNADO,
        FEMA_STORM,
        NOAA_EARTHQUAKE,
        NOAA_WIND,
    )


#: Event counts reported in Section 4.3 of the paper.
PAPER_EVENT_COUNTS: Dict[str, int] = {
    EventType.FEMA_HURRICANE: 2_805,
    EventType.FEMA_TORNADO: 6_437,
    EventType.FEMA_STORM: 20_623,
    EventType.NOAA_EARTHQUAKE: 2_267,
    EventType.NOAA_WIND: 143_847,
}


@dataclass(frozen=True)
class DisasterEvent:
    """One archival event: what, where, when."""

    event_type: str
    location: GeoPoint
    year: int

    def __post_init__(self) -> None:
        if self.event_type not in EventType.ALL:
            raise ValueError(f"unknown event type {self.event_type!r}")
        if not 1900 <= self.year <= 2100:
            raise ValueError(f"implausible event year {self.year}")

    @property
    def identity(self) -> str:
        """Stable content identity: class, year, and exact location.

        Two records are the same event iff they agree on all three —
        coordinates are hashed via ``float.hex`` so no decimal rounding
        can merge distinct locations.  This is what makes streaming
        dedup deterministic: ingesting the same record twice is a
        no-op.
        """
        h = hashlib.blake2b(digest_size=12)
        for part in (
            self.event_type,
            str(self.year),
            float(self.location.lat).hex(),
            float(self.location.lon).hex(),
        ):
            h.update(part.encode("utf-8"))
            h.update(b"\x00")
        return h.hexdigest()


class DisasterCatalog:
    """An immutable, typed collection of disaster events."""

    def __init__(self, events: Iterable[DisasterEvent]) -> None:
        self._events: Tuple[DisasterEvent, ...] = tuple(events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[DisasterEvent]:
        return iter(self._events)

    def events(self) -> Tuple[DisasterEvent, ...]:
        """All events."""
        return self._events

    def locations(self) -> List[GeoPoint]:
        """Event locations in catalog order."""
        return [event.location for event in self._events]
