"""Figure 13: regional interdomain risk ratios during the hurricanes.

As in the paper, only regional networks with more than 20% of their PoPs
inside the storm's (final) scope are evaluated; routing runs over the
merged interdomain topology with the advisory-specific forecast field.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.interdomain import (
    InterdomainRouter,
    corpus_merge,
    regional_pair_population,
)
from ..forecast.advisory import advisory_text
from ..forecast.risk import snapshot_from_advisory, snapshot_from_text
from ..forecast.storms import case_study_storms, storm_advisories
from ..risk.forecasted import ForecastedRiskModel
from ..topology.zoo import regional_networks
from .base import ExperimentResult, register
from .figure12_tier1_casestudy import sample_ticks

#: Paper's inclusion rule: regionals with more than this fraction of
#: their PoPs inside the storm's scope.
SCOPE_FRACTION = 0.20

#: Number of advisory ticks sampled per storm.
TICKS = 5


def networks_in_scope(storm: str) -> List[str]:
    """Regional networks with >20% of PoPs in the storm's final scope."""
    field = ForecastedRiskModel(
        snapshot_from_advisory(a) for a in storm_advisories(storm)
    )
    return [
        network.name
        for network in regional_networks()
        if len(field.pops_in_scope(network)) / network.pop_count
        > SCOPE_FRACTION
    ]


@register("figure13")
def run() -> ExperimentResult:
    """Regenerate the Figure 13 time series."""
    topology, base_model = corpus_merge()
    destinations = regional_pair_population(topology)
    # One router over the merge for the whole run, as in Figure 12:
    # each tick swaps only the forecast field, so the engine keeps its
    # geographic sweeps and drops just the risk-weighted ones.
    router = InterdomainRouter(topology, base_model)
    rows = []
    for storm in case_study_storms():
        in_scope = networks_in_scope(storm)
        for advisory in sample_ticks(storm_advisories(storm), TICKS):
            snapshot = snapshot_from_text(advisory_text(advisory))
            forecast = ForecastedRiskModel([snapshot])
            of_map: Dict[str, float] = {}
            for network in topology.networks.values():
                of_map.update(forecast.pop_risks(network))
            router.session.update_forecast(of_map)
            row = {
                "storm": storm,
                "advisory": advisory.number,
                "time": advisory.time.isoformat(),
            }
            for name in in_scope:
                result = router.regional_ratios(name, destinations)
                row[f"rr_{name}"] = result.risk_reduction_ratio
            rows.append(row)
    return ExperimentResult(
        experiment_id="figure13",
        title="Regional interdomain risk ratio during the case studies",
        rows=rows,
        notes=(
            "Expected shape: only storm-exposed regionals appear; gains "
            "are largest for networks with a moderate fraction of PoPs in "
            "scope (traffic can still be steered around the storm)."
        ),
    )
