"""Figure 12: tier-1 risk-reduction ratio time series during the three
hurricane case studies.

Advisory by advisory, the forecast risk field is rebuilt (through the
text-parsing pipeline) and the intradomain risk-reduction ratio of each
tier-1 network is re-evaluated with gamma_h = 1e5, gamma_f = 1e3.
"""

from __future__ import annotations

from typing import List, Sequence

from ..forecast.advisory import Advisory, advisory_text
from ..forecast.risk import snapshot_from_text
from ..forecast.storms import case_study_storms, storm_advisories
from ..risk.forecasted import ForecastedRiskModel
from ..risk.model import RiskModel
from ..session import RoutingSession
from ..topology.zoo import tier1_networks
from .base import ExperimentResult, register

#: Number of advisory ticks sampled per storm (the paper labels 6-10).
TICKS = 6


def sample_ticks(advisories: Sequence[Advisory], count: int) -> List[Advisory]:
    """Evenly spaced advisory sample including the last advisory."""
    if count >= len(advisories):
        return list(advisories)
    step = (len(advisories) - 1) / (count - 1)
    return [advisories[round(i * step)] for i in range(count)]


@register("figure12")
def run() -> ExperimentResult:
    """Regenerate the Figure 12 time series."""
    # One long-lived session per network: each advisory tick swaps only
    # the forecast component, so the engine keeps its geographic sweeps
    # and drops just the risk-weighted ones.
    sessions = {
        network.name: RoutingSession(network, RiskModel.for_network(network))
        for network in tier1_networks()
    }

    rows = []
    for storm in case_study_storms():
        for advisory in sample_ticks(storm_advisories(storm), TICKS):
            snapshot = snapshot_from_text(advisory_text(advisory))
            forecast = ForecastedRiskModel([snapshot])
            row = {
                "storm": storm,
                "advisory": advisory.number,
                "time": advisory.time.isoformat(),
            }
            for name, session in sessions.items():
                network = session.network
                of_map = forecast.pop_risks(network)
                session.update_forecast(of_map)
                result = session.all_pairs()
                row[f"rr_{name}"] = result.risk_reduction_ratio
                row[f"in_scope_{name}"] = sum(
                    1 for v in of_map.values() if v > 0
                )
            rows.append(row)
    return ExperimentResult(
        experiment_id="figure12",
        title="Tier-1 risk ratio during Irene / Katrina / Sandy",
        rows=rows,
        notes=(
            "Expected shape: Katrina ratios stay small (little "
            "infrastructure in scope); Irene and Sandy ratios grow as the "
            "storm engulfs more PoPs."
        ),
    )
