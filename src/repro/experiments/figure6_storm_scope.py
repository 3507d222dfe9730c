"""Figure 6: final geo-spatial scope of Irene, Katrina and Sandy.

The quantitative companion numbers in Section 7.3: counting tier-1 PoPs
that ever fall under hurricane-force winds, the paper finds 86 for
Irene, 8 for Katrina and 115 for Sandy.
"""

from __future__ import annotations

from ..forecast.risk import storm_scope
from ..forecast.storms import case_study_storms, storm_advisories
from ..topology.zoo import regional_networks, tier1_networks
from .base import ExperimentResult, register

#: Tier-1 PoPs under hurricane-force winds per Section 7.3.
PAPER_HURRICANE_POPS = {"Irene": 86, "Katrina": 8, "Sandy": 115}


def _scope_counts(advisories, pops):
    scope = storm_scope(advisories, [p.location for p in pops])
    # A pop_id shared by several sites counts once, at its strongest zone.
    hurricane = {p.pop_id for p in pops if scope[p.location] == "hurricane"}
    tropical = {p.pop_id for p in pops if scope[p.location] == "tropical"}
    return len(hurricane), len(tropical - hurricane)


@register("figure6")
def run() -> ExperimentResult:
    """Regenerate the Figure 6 storm scopes."""
    tier1_pops = [p for n in tier1_networks() for p in n.pops()]
    regional_pops = [p for n in regional_networks() for p in n.pops()]
    rows = []
    for name in case_study_storms():
        advisories = storm_advisories(name)
        t1_hurricane, t1_tropical = _scope_counts(advisories, tier1_pops)
        reg_hurricane, reg_tropical = _scope_counts(advisories, regional_pops)
        rows.append(
            {
                "storm": name,
                "advisories": len(advisories),
                "tier1_pops_hurricane": t1_hurricane,
                "paper_tier1_hurricane": PAPER_HURRICANE_POPS[name],
                "tier1_pops_tropical": t1_tropical,
                "regional_pops_hurricane": reg_hurricane,
                "regional_pops_tropical": reg_tropical,
            }
        )
    return ExperimentResult(
        experiment_id="figure6",
        title="Final geographic scope of the three case-study hurricanes",
        rows=rows,
        notes=(
            "Expected shape: Katrina touches far fewer tier-1 PoPs than "
            "Irene, and Sandy the most."
        ),
    )
