"""Figure 8: interdomain distance-increase vs risk-reduction scatter for
the 16 regional networks (gamma_h = 1e5).

Each regional network's PoPs source traffic to every PoP of the 16
regional networks through the merged peering topology; RiskRoute's lower
bound is compared against shortest-path routing.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.interdomain import (
    InterdomainRouter,
    corpus_merge,
    regional_pair_population,
)
from ..topology.zoo import regional_networks
from .base import ExperimentResult, register


def regional_ratio_map() -> Dict[str, Tuple[float, float]]:
    """(rr, dr) per regional network at the model's default gammas."""
    topology, model = corpus_merge()
    router = InterdomainRouter(topology, model)
    destinations = regional_pair_population(topology)
    out: Dict[str, Tuple[float, float]] = {}
    for network in regional_networks():
        result = router.regional_ratios(network.name, destinations)
        out[network.name] = (
            result.risk_reduction_ratio,
            result.distance_increase_ratio,
        )
    return out


@register("figure8")
def run() -> ExperimentResult:
    """Regenerate the Figure 8 scatter."""
    ratios = regional_ratio_map()
    rows = []
    for name in sorted(ratios):
        rr, dr = ratios[name]
        rows.append(
            {
                "network": name,
                "risk_reduction_ratio": rr,
                "distance_increase_ratio": dr,
                "rr_over_dr": rr / dr if dr > 0 else float("inf"),
            }
        )
    rows.sort(key=lambda r: -r["risk_reduction_ratio"])
    return ExperimentResult(
        experiment_id="figure8",
        title="Regional interdomain rr vs dr scatter (gamma_h = 1e5)",
        rows=rows,
        notes=(
            "Expected shape: most regionals near the rr ~ dr diagonal, a "
            "subset achieving rr ~ 2x dr (the paper names Digex, Gridnet, "
            "Hibernia, Bandcon)."
        ),
    )
