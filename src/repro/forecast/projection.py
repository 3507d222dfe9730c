"""Forecast projection: routing around where the storm *will* be.

The paper reroutes against each advisory's current wind field; real NHC
advisories also carry forecast positions at 12/24/48/72-hour leads, and
an operator pre-positioning backup routes cares about the storm's future
scope.  This module projects an advisory forward along its reported
motion vector, grows the threatened area with the standard cone of
uncertainty (forecast error increasing with lead time), and produces the
snapshots of an *anticipatory* risk field — the current wind field and
the projected ones, with risk discounted by lead time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..geo.coords import GeoPoint
from ..geo.distance import destination_point
from .advisory import Advisory
from .risk import (
    RHO_HURRICANE,
    RHO_TROPICAL,
    ForecastSnapshot,
    snapshot_from_advisory,
)

__all__ = [
    "CONE_GROWTH_MILES_PER_HOUR",
    "ProjectedPosition",
    "project_advisory",
    "anticipatory_snapshots",
]

#: Growth of the NHC cone of uncertainty, ~linearised: the official
#: 2/3-probability circle reaches ~100 nm (115 mi) at 48 h.
CONE_GROWTH_MILES_PER_HOUR = 2.4

#: Forecast leads of the anticipatory field, hours (matching NHC
#: advisory structure).
LEADS_HOURS = (12.0, 24.0, 48.0)

#: Risk discount per projected hour: a threat 48 h out counts ~1/3 of a
#: current one (operators weight immediacy).
LEAD_DISCOUNT_PER_HOUR = 0.023


@dataclass(frozen=True)
class ProjectedPosition:
    """The storm's forecast state at one lead time."""

    lead_hours: float
    center: GeoPoint
    hurricane_radius_miles: float
    tropical_radius_miles: float
    cone_radius_miles: float

    @property
    def threatened_radius_miles(self) -> float:
        """Tropical wind radius inflated by forecast uncertainty."""
        return self.tropical_radius_miles + self.cone_radius_miles


def project_advisory(advisory: Advisory) -> List[ProjectedPosition]:
    """Project an advisory forward along its motion vector, one position
    per :data:`LEADS_HOURS` lead.

    The centre advances at the advisory's reported speed and bearing;
    wind radii are carried forward unchanged (NHC's own persistence
    baseline) and the cone radius grows linearly with lead time.
    """
    out: List[ProjectedPosition] = []
    for lead in LEADS_HOURS:
        travel = advisory.motion_speed_mph * lead
        center = (
            destination_point(
                advisory.center, advisory.motion_bearing_degrees, travel
            )
            if travel > 0
            else advisory.center
        )
        out.append(
            ProjectedPosition(
                lead_hours=lead,
                center=center,
                hurricane_radius_miles=advisory.hurricane_radius_miles,
                tropical_radius_miles=advisory.tropical_radius_miles,
                cone_radius_miles=CONE_GROWTH_MILES_PER_HOUR * lead,
            )
        )
    return out


def anticipatory_snapshots(advisory: Advisory) -> List[ForecastSnapshot]:
    """The current plus projected wind fields, discounted by lead time.

    The advisory's own field comes first, at full risk.  Each
    projection at :data:`LEADS_HOURS` (cone-inflated) follows
    with its lead-time weight multiplied into ``rho_tropical`` and
    ``rho_hurricane``; a projection whose weight reaches zero (the
    48-hour one, at :data:`LEAD_DISCOUNT_PER_HOUR`) is dropped.  A
    :class:`~repro.risk.forecasted.ForecastedRiskModel` over the list is
    the anticipatory ``o_f``: the maximum over the weighted fields, so
    infrastructure in the storm's *projected* path is already priced
    before the winds arrive.
    """
    snapshots = [snapshot_from_advisory(advisory)]
    for projection in project_advisory(advisory):
        weight = 1.0 - LEAD_DISCOUNT_PER_HOUR * projection.lead_hours
        if weight <= 0.0:
            continue
        snapshots.append(
            ForecastSnapshot(
                center=projection.center,
                hurricane_radius_miles=(
                    projection.hurricane_radius_miles
                    + projection.cone_radius_miles
                ),
                tropical_radius_miles=projection.threatened_radius_miles,
                rho_tropical=weight * RHO_TROPICAL,
                rho_hurricane=weight * RHO_HURRICANE,
            )
        )
    return snapshots
