"""Geographic coordinate primitives.

Every geographic location in the RiskRoute reproduction is expressed as a
:class:`GeoPoint` — an immutable (latitude, longitude) pair in decimal
degrees using the WGS84 convention (north and east positive).  The module
also provides :class:`BoundingBox`, an axis-aligned lat/lon rectangle used
for clipping event catalogs and building evaluation grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

__all__ = [
    "GeoPoint",
    "BoundingBox",
    "CONTINENTAL_US",
    "validate_latitude",
    "validate_longitude",
]


def validate_latitude(lat: float) -> float:
    """Return ``lat`` if it is a finite value in [-90, 90], else raise.

    Raises:
        ValueError: if the latitude is non-finite or out of range.
    """
    if not math.isfinite(lat):
        raise ValueError(f"latitude must be finite, got {lat!r}")
    if lat < -90.0 or lat > 90.0:
        raise ValueError(f"latitude must be in [-90, 90], got {lat!r}")
    return float(lat)


def validate_longitude(lon: float) -> float:
    """Return ``lon`` if it is a finite value in [-180, 180], else raise.

    Raises:
        ValueError: if the longitude is non-finite or out of range.
    """
    if not math.isfinite(lon):
        raise ValueError(f"longitude must be finite, got {lon!r}")
    if lon < -180.0 or lon > 180.0:
        raise ValueError(f"longitude must be in [-180, 180], got {lon!r}")
    return float(lon)


@dataclass(frozen=True, order=True)
class GeoPoint:
    """An immutable WGS84 point: latitude and longitude in decimal degrees.

    Instances are hashable and totally ordered (lexicographically by
    latitude then longitude), so they can key dictionaries and be sorted
    deterministically.
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lat", validate_latitude(self.lat))
        object.__setattr__(self, "lon", validate_longitude(self.lon))

    def as_radians(self) -> Tuple[float, float]:
        """Return ``(lat, lon)`` converted to radians."""
        return (math.radians(self.lat), math.radians(self.lon))

    def __str__(self) -> str:
        ns = "N" if self.lat >= 0 else "S"
        ew = "E" if self.lon >= 0 else "W"
        return f"{abs(self.lat):.4f}{ns} {abs(self.lon):.4f}{ew}"


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned latitude/longitude rectangle.

    The box is inclusive on all four edges.  Longitude wrap-around (boxes
    crossing the antimeridian) is intentionally unsupported: the study area
    is the continental United States.
    """

    south: float
    west: float
    north: float
    east: float

    def __post_init__(self) -> None:
        validate_latitude(self.south)
        validate_latitude(self.north)
        validate_longitude(self.west)
        validate_longitude(self.east)
        if self.south > self.north:
            raise ValueError(
                f"south ({self.south}) must not exceed north ({self.north})"
            )
        if self.west > self.east:
            raise ValueError(
                f"west ({self.west}) must not exceed east ({self.east})"
            )

    @property
    def height_degrees(self) -> float:
        """Latitudinal extent of the box in degrees."""
        return self.north - self.south

    @property
    def width_degrees(self) -> float:
        """Longitudinal extent of the box in degrees."""
        return self.east - self.west

    @property
    def center(self) -> GeoPoint:
        """The geometric centre of the box."""
        return GeoPoint(
            (self.south + self.north) / 2.0, (self.west + self.east) / 2.0
        )

    def contains(self, point: GeoPoint) -> bool:
        """Return True when ``point`` lies inside or on the box edge."""
        return (
            self.south <= point.lat <= self.north
            and self.west <= point.lon <= self.east
        )

    def clip(self, points: Iterable[GeoPoint]) -> Iterator[GeoPoint]:
        """Yield only the points that fall inside the box."""
        for point in points:
            if self.contains(point):
                yield point


#: The study area of the paper: the continental United States.
CONTINENTAL_US = BoundingBox(south=24.5, west=-125.0, north=49.5, east=-66.5)
