"""Disaster event records and catalogs (Section 4.3).

The paper assembles five archival event classes: FEMA emergency
declarations for hurricanes, tornadoes and severe storms (county-level,
1970-2010), and NOAA-recorded damaging-wind and earthquake events.  A
:class:`DisasterCatalog` holds one class as ``lat``/``lon``/``year``
columns; a :class:`DisasterEvent` is one record, built where an API
hands one out (wire ingest).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

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


#: A dedup key: ``(event_type, year, lat bits, lon bits)``.
EventKey = Tuple[str, int, int, int]


def _float_bits(value: float) -> int:
    """The IEEE-754 bit pattern of ``value`` as a signed 64-bit int (the
    same integer ``numpy.ndarray.view(numpy.int64)`` gives)."""
    return struct.unpack("=q", struct.pack("=d", value))[0]


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
    def identity(self) -> EventKey:
        """Content identity: class, year, and the exact bits of each
        coordinate.

        Two records are the same event iff they agree on all four, so
        no decimal rounding can merge distinct locations, and ``-0.0``
        and ``0.0`` stay distinct.  This is what makes streaming dedup
        deterministic: ingesting the same record twice is a no-op.
        A catalog row's key is its ``year`` and the ``view(np.int64)``
        of its ``lat`` and ``lon``, the columns the streaming model
        searches.
        """
        return (
            self.event_type,
            self.year,
            _float_bits(self.location.lat),
            _float_bits(self.location.lon),
        )


def _column(values, dtype) -> "np.ndarray":
    column = np.array(values, dtype=dtype)
    if column.ndim != 1:
        raise ValueError("catalog columns must be 1-D")
    column.setflags(write=False)
    return column


class DisasterCatalog:
    """An immutable catalog of one event class, stored as columns.

    ``lat`` and ``lon`` are float64 degrees and ``year`` int64, one row
    per event.  The constructor checks every row for what
    :class:`~repro.geo.coords.GeoPoint` and :class:`DisasterEvent`
    check of one record: a known class, a finite latitude in [-90, 90]
    and longitude in [-180, 180], and a year in 1900..2100.

    Raises:
        ValueError: for an unknown class, columns of unequal length, or
            a row that fails a check.
    """

    def __init__(self, event_type: str, lat, lon, year) -> None:
        if event_type not in EventType.ALL:
            raise ValueError(f"unknown event type {event_type!r}")
        lat = _column(lat, np.float64)
        lon = _column(lon, np.float64)
        year = _column(year, np.int64)
        if not lat.shape == lon.shape == year.shape:
            raise ValueError("lat, lon and year must have equal lengths")
        # NaN fails both comparisons, so it is caught with the range.
        if not (np.abs(lat) <= 90.0).all():
            raise ValueError("latitude must be finite and in [-90, 90]")
        if not (np.abs(lon) <= 180.0).all():
            raise ValueError("longitude must be finite and in [-180, 180]")
        bad = (year < 1900) | (year > 2100)
        if bad.any():
            raise ValueError(f"implausible event year {year[bad][0]}")
        self.event_type = event_type
        self.lat = lat
        self.lon = lon
        self.year = year

    def __len__(self) -> int:
        return int(self.lat.shape[0])

    def latlon(self) -> "np.ndarray":
        """An (N, 2) array of (lat, lon) degree rows, catalog order."""
        return np.column_stack((self.lat, self.lon))
