"""Great-circle distance: the "miles" in bit-risk miles.

The Level 3 traffic exchange policy the paper builds on defines bit-miles
in terms of *air miles*, i.e. great-circle distance.  We use the haversine
formula on a spherical Earth, which is accurate to ~0.5% against the WGS84
ellipsoid — far below the modelling error of line-of-sight link placement.

All distances in this package are in statute miles unless a function name
says otherwise.
"""

from __future__ import annotations

import math
import numpy as np

from .coords import GeoPoint

__all__ = [
    "EARTH_RADIUS_MILES",
    "haversine_miles",
    "great_circle_miles",
    "interpolate_great_circle",
    "destination_point",
]

#: Mean Earth radius (IUGG) in statute miles.
EARTH_RADIUS_MILES = 3958.7613


def haversine_miles(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in statute miles."""
    lat1, lon1 = a.as_radians()
    lat2, lon2 = b.as_radians()
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = (
        math.sin(dlat / 2.0) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_MILES * math.asin(min(1.0, math.sqrt(h)))


def great_circle_miles(
    a_deg: "np.ndarray", b_deg: "np.ndarray"
) -> "np.ndarray":
    """(len(a), len(b)) matrix of haversine miles between (lat, lon)
    degree rows, fully vectorised.

    The one array form of :func:`haversine_miles`: candidate-link and
    traffic distance matrices, KDE kernel distances, storm and damage
    radii and landmark bounds all come from here.  A one-to-many caller
    passes its target as a one-row ``b_deg`` and reads column 0.

    Raises:
        ValueError: unless both inputs are (N, 2) arrays.
    """
    a = np.radians(_latlon_rows(a_deg))
    b = np.radians(_latlon_rows(b_deg))
    dlat = a[:, 0][:, None] - b[:, 0][None, :]
    dlon = a[:, 1][:, None] - b[:, 1][None, :]
    h = (
        np.sin(dlat / 2.0) ** 2
        + np.cos(a[:, 0])[:, None]
        * np.cos(b[:, 0])[None, :]
        * np.sin(dlon / 2.0) ** 2
    )
    np.clip(h, 0.0, 1.0, out=h)
    return 2.0 * EARTH_RADIUS_MILES * np.arcsin(np.sqrt(h))


def _latlon_rows(latlon_deg: "np.ndarray") -> "np.ndarray":
    latlon_deg = np.asarray(latlon_deg, dtype=np.float64)
    if latlon_deg.ndim != 2 or latlon_deg.shape[1] != 2:
        raise ValueError("expected an (N, 2) array of (lat, lon) degrees")
    return latlon_deg


def interpolate_great_circle(
    a: GeoPoint, b: GeoPoint, fraction: float
) -> GeoPoint:
    """Return the point ``fraction`` of the way along the great circle a→b.

    ``fraction`` = 0 returns ``a``; 1 returns ``b``.  Used to densify
    line-of-sight links when intersecting them with forecast wind fields.

    Raises:
        ValueError: if ``fraction`` is outside [0, 1] or the points are
            antipodal (the great circle is then ambiguous).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction!r}")
    if fraction == 0.0:
        return a
    if fraction == 1.0:
        return b
    lat1, lon1 = a.as_radians()
    lat2, lon2 = b.as_radians()
    delta = haversine_miles(a, b) / EARTH_RADIUS_MILES
    if delta == 0.0:
        return a
    if abs(delta - math.pi) < 1e-12:
        raise ValueError("cannot interpolate between antipodal points")
    sin_delta = math.sin(delta)
    fa = math.sin((1.0 - fraction) * delta) / sin_delta
    fb = math.sin(fraction * delta) / sin_delta
    x = fa * math.cos(lat1) * math.cos(lon1) + fb * math.cos(lat2) * math.cos(lon2)
    y = fa * math.cos(lat1) * math.sin(lon1) + fb * math.cos(lat2) * math.sin(lon2)
    z = fa * math.sin(lat1) + fb * math.sin(lat2)
    lat = math.atan2(z, math.sqrt(x * x + y * y))
    lon = math.atan2(y, x)
    return GeoPoint(math.degrees(lat), math.degrees(lon))


def destination_point(
    origin: GeoPoint, bearing_degrees: float, distance_miles: float
) -> GeoPoint:
    """Return the point ``distance_miles`` from ``origin`` along a bearing.

    Bearing is measured clockwise from true north.  Used by the synthetic
    storm-track generator to advance hurricane centres.
    """
    if distance_miles < 0:
        raise ValueError("distance_miles must be non-negative")
    lat1, lon1 = origin.as_radians()
    bearing = math.radians(bearing_degrees)
    delta = distance_miles / EARTH_RADIUS_MILES
    lat2 = math.asin(
        math.sin(lat1) * math.cos(delta)
        + math.cos(lat1) * math.sin(delta) * math.cos(bearing)
    )
    lon2 = lon1 + math.atan2(
        math.sin(bearing) * math.sin(delta) * math.cos(lat1),
        math.cos(delta) - math.sin(lat1) * math.sin(lat2),
    )
    lon2 = (lon2 + 3.0 * math.pi) % (2.0 * math.pi) - math.pi
    return GeoPoint(math.degrees(lat2), math.degrees(lon2))
