"""Figure 7: RiskRoute vs shortest path on Level3, Houston TX -> Boston MA.

The paper plots the two routes at gamma_h = 1e4 and 1e5: as the tuning
parameter grows, the RiskRoute path deviates farther from the shortest
path to skirt the high-risk south-east.
"""

from __future__ import annotations

from ..risk.model import RiskModel
from ..session import RoutingSession
from ..topology.zoo import network_by_name
from .base import ExperimentResult, register

SOURCE = "Level3:Houston, TX"
TARGET = "Level3:Boston, MA"
GAMMAS = (1e4, 1e5)


@register("figure7")
def run() -> ExperimentResult:
    """Regenerate the Figure 7 route comparison."""
    network = network_by_name("Level3")
    base_model = RiskModel.for_network(network)
    session = RoutingSession(network, base_model)
    rows = []
    for gamma_h in GAMMAS:
        session.update_model(base_model.with_gammas(gamma_h, 0.0))
        pair = session.pair(SOURCE, TARGET)
        shared = set(pair.shortest.path) & set(pair.riskroute.path)
        rows.append(
            {
                "gamma_h": gamma_h,
                "shortest_miles": pair.shortest.bit_miles,
                "riskroute_miles": pair.riskroute.bit_miles,
                "shortest_bit_risk": pair.shortest.bit_risk_miles,
                "riskroute_bit_risk": pair.riskroute.bit_risk_miles,
                "shortest_hops": len(pair.shortest.path) - 1,
                "riskroute_hops": len(pair.riskroute.path) - 1,
                "shared_pops": len(shared),
                "riskroute_cities": " > ".join(
                    p.split(":", 1)[1] for p in pair.riskroute.path
                ),
            }
        )
    return ExperimentResult(
        experiment_id="figure7",
        title="Level3 Houston->Boston: shortest path vs RiskRoute",
        rows=rows,
        notes=(
            "Expected shape: at the larger gamma_h the RiskRoute path is "
            "longer in miles, cheaper in bit-risk miles, and shares fewer "
            "PoPs with the shortest path (more deviation inland)."
        ),
    )
