"""Figure 5: geo-spatial disaster forecast for Hurricane Irene at three
advisory times.

The paper plots the tropical-storm and hurricane force wind zones at
11:00 AM 8/25, 5:00 PM 8/26 and 8:00 AM 8/28 (2011).  We regenerate the
zones through the full pipeline — advisory text generation, NLP parsing,
risk-field construction — and report the storm geometry plus how much
tier-1 infrastructure each snapshot covers.
"""

from __future__ import annotations

from datetime import datetime
from typing import List

from ..forecast.advisory import advisory_text
from ..forecast.risk import snapshot_from_text
from ..forecast.storms import storm_advisories
from ..topology.zoo import tier1_networks
from .base import ExperimentResult, register

#: The three panel timestamps of Figure 5.
PANEL_TIMES = (
    datetime(2011, 8, 25, 11, 0),
    datetime(2011, 8, 26, 17, 0),
    datetime(2011, 8, 28, 8, 0),
)


def _closest_advisory(advisories, when: datetime):
    return min(advisories, key=lambda a: abs((a.time - when).total_seconds()))


@register("figure5")
def run() -> ExperimentResult:
    """Regenerate the Figure 5 forecast snapshots."""
    advisories = storm_advisories("Irene")
    networks = tier1_networks()
    rows: List[dict] = []
    for when in PANEL_TIMES:
        advisory = _closest_advisory(advisories, when)
        # Full pipeline: structured advisory -> NHC text -> NLP parse.
        snapshot = snapshot_from_text(advisory_text(advisory))
        tropical = 0
        hurricane = 0
        for network in networks:
            for pop in network.pops():
                zone = snapshot.zone_of(pop.location)
                if zone == "hurricane":
                    hurricane += 1
                elif zone == "tropical":
                    tropical += 1
        rows.append(
            {
                "advisory_time": advisory.time.isoformat(),
                "advisory_number": advisory.number,
                "center_lat": snapshot.center.lat,
                "center_lon": snapshot.center.lon,
                "hurricane_radius_mi": snapshot.hurricane_radius_miles,
                "tropical_radius_mi": snapshot.tropical_radius_miles,
                "tier1_pops_hurricane_zone": hurricane,
                "tier1_pops_tropical_zone": tropical,
            }
        )
    return ExperimentResult(
        experiment_id="figure5",
        title="Hurricane Irene forecast wind zones at three advisory times",
        rows=rows,
        notes=(
            "Expected shape: the storm centre moves up the Atlantic coast "
            "and the count of covered tier-1 PoPs grows as it approaches "
            "the northeast."
        ),
    )
