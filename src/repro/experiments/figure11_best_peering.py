"""Figure 11: the best additional peering relationship per regional
network.

For each regional network the candidate peers are co-located,
non-peered networks; each candidate is scored by the regional's
aggregate lower-bound bit-risk miles with that peering added.
"""

from __future__ import annotations

from ..core.interdomain import InterdomainRouter, corpus_merge
from ..core.provisioning import best_new_peering
from ..topology.zoo import regional_networks
from .base import ExperimentResult, register


@register("figure11")
def run() -> ExperimentResult:
    """Regenerate the Figure 11 peering recommendations.

    Only new tier-1 transit is considered: the paper's Figure 11
    recommendations are all regional-to-tier-1 links, and our synthetic
    regional footprints overlap more than the real corpus, so an
    unrestricted search surfaces mutual regional peerings instead.
    """
    topology, model = corpus_merge()
    # One router over the plain merge serves every regional's search:
    # the via-edge scorer never mutates the graph, so baseline sweeps
    # accumulate in a single shared engine cache.
    router = InterdomainRouter(topology, model)
    rows = []
    for network in regional_networks():
        rec = best_new_peering(
            topology, model, network.name, tier1_only=True, router=router,
        )
        if rec is None:
            rows.append(
                {
                    "network": network.name,
                    "best_new_peer": "(none)",
                    "fraction_of_baseline": 1.0,
                }
            )
            continue
        rows.append(
            {
                "network": network.name,
                "best_new_peer": rec.peer,
                "fraction_of_baseline": rec.fraction_of_baseline,
            }
        )
    return ExperimentResult(
        experiment_id="figure11",
        title="Best additional peering per regional network",
        rows=rows,
        notes=(
            "Expected shape: a majority of regionals pick AT&T or Tinet "
            "(the well-placed tier-1s they do not already peer with)."
        ),
    )
