"""Hurricane track modelling.

A storm track is a time-ordered sequence of fixes: centre position,
intensity, and the radii of hurricane-force and tropical-storm-force
winds.  Synthetic tracks for the paper's three case-study storms are
produced by interpolating sparse, hand-laid waypoints that follow each
storm's real path and timing (see :mod:`repro.forecast.storms`).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import List, Sequence, Tuple

from ..geo.coords import GeoPoint
from ..geo.distance import haversine_miles

__all__ = ["TrackFix", "StormTrack", "interpolate_waypoints"]


@dataclass(frozen=True)
class TrackFix:
    """One fix of a storm: where it is, how strong, how fast it moves."""

    time: datetime
    center: GeoPoint
    max_wind_mph: float
    hurricane_radius_miles: float
    tropical_radius_miles: float
    motion_bearing_degrees: float
    motion_speed_mph: float

    def __post_init__(self) -> None:
        if self.max_wind_mph < 0:
            raise ValueError("max_wind_mph must be non-negative")
        if self.hurricane_radius_miles < 0 or self.tropical_radius_miles < 0:
            raise ValueError("wind radii must be non-negative")
        if self.tropical_radius_miles < self.hurricane_radius_miles:
            raise ValueError(
                "tropical-storm wind radius cannot be smaller than the "
                "hurricane wind radius"
            )

    @property
    def is_hurricane(self) -> bool:
        """True at hurricane intensity (sustained winds >= 74 mph)."""
        return self.max_wind_mph >= 74.0


class StormTrack:
    """A named storm with time-ordered fixes."""

    def __init__(self, name: str, fixes: Sequence[TrackFix]) -> None:
        if not name:
            raise ValueError("storm name must be non-empty")
        if not fixes:
            raise ValueError("track needs at least one fix")
        times = [fix.time for fix in fixes]
        if times != sorted(times):
            raise ValueError("fixes must be in chronological order")
        if len(set(times)) != len(times):
            raise ValueError("fixes must have distinct timestamps")
        self.name = name
        self._fixes: Tuple[TrackFix, ...] = tuple(fixes)

    def fixes(self) -> Tuple[TrackFix, ...]:
        """All fixes."""
        return self._fixes

    def __len__(self) -> int:
        return len(self._fixes)


def interpolate_waypoints(
    waypoints: Sequence[Tuple[float, float, float, float, float, float]],
    start: datetime,
    n_fixes: int,
) -> List[TrackFix]:
    """Densify sparse waypoints into ``n_fixes`` evenly spaced fixes.

    Args:
        waypoints: ``(hour_offset, lat, lon, max_wind_mph,
            hurricane_radius_miles, tropical_radius_miles)`` tuples with
            strictly increasing hour offsets.
        start: wall-clock time of hour offset 0.
        n_fixes: number of output fixes spanning the full offset range.

    Returns:
        Linearly interpolated fixes, with motion derived from consecutive
        centre positions.

    Raises:
        ValueError: for fewer than two waypoints, non-increasing offsets,
            or ``n_fixes`` < 2.
    """
    if len(waypoints) < 2:
        raise ValueError("need at least two waypoints")
    if n_fixes < 2:
        raise ValueError("need at least two output fixes")
    hours = [w[0] for w in waypoints]
    if hours != sorted(hours) or len(set(hours)) != len(hours):
        raise ValueError("waypoint hour offsets must be strictly increasing")

    total_hours = hours[-1] - hours[0]
    step = total_hours / (n_fixes - 1)

    def lerp(a: float, b: float, t: float) -> float:
        return a + (b - a) * t

    raw: List[Tuple[datetime, GeoPoint, float, float, float]] = []
    segment = 0
    for i in range(n_fixes):
        hour = hours[0] + i * step
        while segment < len(waypoints) - 2 and hour > hours[segment + 1]:
            segment += 1
        w0, w1 = waypoints[segment], waypoints[segment + 1]
        span = w1[0] - w0[0]
        t = 0.0 if span == 0 else (hour - w0[0]) / span
        t = min(1.0, max(0.0, t))
        raw.append(
            (
                start + timedelta(hours=hour),
                GeoPoint(lerp(w0[1], w1[1], t), lerp(w0[2], w1[2], t)),
                lerp(w0[3], w1[3], t),
                lerp(w0[4], w1[4], t),
                lerp(w0[5], w1[5], t),
            )
        )

    fixes: List[TrackFix] = []
    for i, (time, center, wind, h_radius, t_radius) in enumerate(raw):
        if i + 1 < len(raw):
            nxt_time, nxt_center = raw[i + 1][0], raw[i + 1][1]
        else:
            nxt_time, nxt_center = time, center
        dt_hours = max(1e-9, (nxt_time - time).total_seconds() / 3600.0)
        dist = haversine_miles(center, nxt_center)
        speed = dist / dt_hours if i + 1 < len(raw) else 0.0
        bearing = _bearing_degrees(center, nxt_center) if dist > 0 else 0.0
        fixes.append(
            TrackFix(
                time=time,
                center=center,
                max_wind_mph=wind,
                hurricane_radius_miles=min(h_radius, t_radius),
                tropical_radius_miles=t_radius,
                motion_bearing_degrees=bearing,
                motion_speed_mph=speed,
            )
        )
    return fixes


def _bearing_degrees(a: GeoPoint, b: GeoPoint) -> float:
    """Initial great-circle bearing from a to b, clockwise from north."""
    import math

    lat1, lon1 = a.as_radians()
    lat2, lon2 = b.as_radians()
    dlon = lon2 - lon1
    x = math.sin(dlon) * math.cos(lat2)
    y = math.cos(lat1) * math.sin(lat2) - math.sin(lat1) * math.cos(
        lat2
    ) * math.cos(dlon)
    return (math.degrees(math.atan2(x, y)) + 360.0) % 360.0
