"""Table 2: Tier-1 risk-reduction and distance-increase ratios at
gamma_h = 1e5 and 1e6."""

from __future__ import annotations

from typing import Dict, Tuple

from ..risk.model import RiskModel
from ..session import RoutingSession
from ..topology.zoo import tier1_networks
from .base import ExperimentResult, register

#: Paper values: name -> (rr@1e5, dr@1e5, rr@1e6, dr@1e6).
PAPER_TABLE2: Dict[str, Tuple[float, float, float, float]] = {
    "Level3": (0.075, 0.015, 0.258, 0.136),
    "ATT": (0.207, 0.045, 0.340, 0.168),
    "Deutsche": (0.245, 0.130, 0.384, 0.446),
    "NTT": (0.187, 0.040, 0.295, 0.127),
    "Sprint": (0.222, 0.079, 0.352, 0.191),
    "Tinet": (0.177, 0.045, 0.347, 0.195),
    "Teliasonera": (0.223, 0.068, 0.336, 0.226),
}

GAMMAS = (1e5, 1e6)


@register("table2")
def run() -> ExperimentResult:
    """Regenerate Table 2 over the tier-1 corpus."""
    rows = []
    for network in tier1_networks():
        base_model = RiskModel.for_network(network)
        session = RoutingSession(network, base_model)
        measured = {}
        for gamma_h in GAMMAS:
            # One session per network: swapping the gammas drops only
            # the risk-weighted sweeps, so the geographic ones run once.
            session.update_model(base_model.with_gammas(gamma_h, 1e3))
            measured[gamma_h] = session.all_pairs()
        paper = PAPER_TABLE2[network.name]
        rows.append(
            {
                "network": network.name,
                "pops": network.pop_count,
                "rr_1e5": measured[1e5].risk_reduction_ratio,
                "paper_rr_1e5": paper[0],
                "dr_1e5": measured[1e5].distance_increase_ratio,
                "paper_dr_1e5": paper[1],
                "rr_1e6": measured[1e6].risk_reduction_ratio,
                "paper_rr_1e6": paper[2],
                "dr_1e6": measured[1e6].distance_increase_ratio,
                "paper_dr_1e6": paper[3],
            }
        )
    return ExperimentResult(
        experiment_id="table2",
        title="Tier-1 bit-risk vs bit-mile trade-off (Equations 5-6)",
        rows=rows,
        notes=(
            "Expected shape: rr and dr both grow with gamma_h for every "
            "network; Level3 at gamma=1e5 has near-paper values."
        ),
    )
