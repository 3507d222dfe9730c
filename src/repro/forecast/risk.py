"""Forecasted outage risk from advisories (Section 5.3).

Each parsed advisory defines two concentric wind zones around the storm
centre.  A location inside the hurricane-force zone carries forecast risk
``rho_h``; inside the tropical-storm-force zone, ``rho_t``; outside both,
zero.  The paper uses ``rho_t = 50`` and ``rho_h = 100`` (Section 5.3),
with the forecast term scaled by ``gamma_f`` in the bit-risk-miles metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence

import numpy as np

from ..geo.coords import GeoPoint
from ..geo.distance import great_circle_miles
from .advisory import Advisory
from .parser import ParsedAdvisory, parse_advisory_text

__all__ = [
    "RHO_TROPICAL",
    "RHO_HURRICANE",
    "ForecastSnapshot",
    "snapshot_from_advisory",
    "snapshot_from_text",
    "storm_scope",
]

#: Paper's forecast risk for tropical-storm-force winds.
RHO_TROPICAL = 50.0
#: Paper's forecast risk for hurricane-force winds.
RHO_HURRICANE = 100.0

#: Zone level (see ForecastSnapshot.zone_levels_many) -> name.
_ZONE_NAMES = ("clear", "tropical", "hurricane")


@dataclass(frozen=True)
class ForecastSnapshot:
    """The forecast risk field implied by one advisory."""

    center: GeoPoint
    hurricane_radius_miles: float
    tropical_radius_miles: float
    rho_tropical: float = RHO_TROPICAL
    rho_hurricane: float = RHO_HURRICANE

    def __post_init__(self) -> None:
        if self.hurricane_radius_miles < 0 or self.tropical_radius_miles < 0:
            raise ValueError("wind radii must be non-negative")
        if self.tropical_radius_miles < self.hurricane_radius_miles:
            raise ValueError("tropical radius must cover hurricane radius")
        if self.rho_hurricane < self.rho_tropical:
            raise ValueError("rho_hurricane must be >= rho_tropical")

    def zone_levels_many(self, latlon_deg: "np.ndarray") -> "np.ndarray":
        """Zone level per (lat, lon) degree row: 0 clear, 1 tropical,
        2 hurricane.

        One vectorised haversine pass against the storm centre — the
        kernel behind :meth:`risks_many` (so behind every forecast
        field) and :func:`storm_scope`, where per-point Python loops
        used to dominate Figure 6.
        """
        distances = great_circle_miles(
            latlon_deg, [[self.center.lat, self.center.lon]]
        )[:, 0]
        levels = np.zeros(distances.shape[0], dtype=np.int64)
        levels[distances <= self.tropical_radius_miles] = 1
        levels[distances <= self.hurricane_radius_miles] = 2
        return levels

    def risks_many(self, latlon_deg: "np.ndarray") -> "np.ndarray":
        """Forecast outage risk ``o_f`` per (lat, lon) degree row."""
        levels = self.zone_levels_many(latlon_deg)
        risks = np.zeros(levels.shape[0], dtype=np.float64)
        risks[levels == 1] = self.rho_tropical
        risks[levels == 2] = self.rho_hurricane
        return risks

    def zone_of(self, location: GeoPoint) -> str:
        """"hurricane", "tropical" or "clear" for a location."""
        level = self.zone_levels_many(
            np.array([[location.lat, location.lon]])
        )[0]
        return _ZONE_NAMES[int(level)]


def snapshot_from_advisory(advisory: Advisory) -> ForecastSnapshot:
    """Build the risk field directly from a structured advisory, at the
    paper's ``rho_t`` and ``rho_h``."""
    return ForecastSnapshot(
        center=advisory.center,
        hurricane_radius_miles=advisory.hurricane_radius_miles,
        tropical_radius_miles=advisory.tropical_radius_miles,
    )


def snapshot_from_text(text: str) -> ForecastSnapshot:
    """Build the risk field from raw advisory text via the NLP parser,
    at the paper's ``rho_t`` and ``rho_h``.

    This is the full pipeline of Section 5.3: advisory prose in, risk
    field out.

    Raises:
        AdvisoryParseError: when the text cannot be parsed.
    """
    parsed: ParsedAdvisory = parse_advisory_text(text)
    return ForecastSnapshot(
        center=parsed.center,
        hurricane_radius_miles=parsed.hurricane_radius_miles,
        tropical_radius_miles=parsed.tropical_radius_miles,
    )


def storm_scope(
    advisories: Sequence[Advisory], locations: Iterable[GeoPoint]
) -> Dict[GeoPoint, str]:
    """The *final* geographic scope of a storm (Figure 6).

    For each location, the strongest zone it ever fell into across the
    full advisory sequence: "hurricane" beats "tropical" beats "clear".
    One vectorised pass per advisory over all locations at once.
    """
    location_list = list(locations)
    if not location_list:
        return {}
    latlon = np.array(
        [(p.lat, p.lon) for p in location_list], dtype=np.float64
    )
    best = np.zeros(latlon.shape[0], dtype=np.int64)
    for advisory in advisories:
        snapshot = snapshot_from_advisory(advisory)
        np.maximum(best, snapshot.zone_levels_many(latlon), out=best)
        if best.min() == 2:
            break
    return {
        location: _ZONE_NAMES[int(level)]
        for location, level in zip(location_list, best)
    }
