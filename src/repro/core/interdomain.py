"""Interdomain RiskRoute (Section 6.2).

When traffic crosses multiple networks the operator does not control
every hop, so the paper brackets the achievable bit-risk miles between
two bounds over the merged peering topology:

* **upper bound** — geographic shortest-path routing through all peering
  networks (a reasonable approximation of real inter-domain routes), and
* **lower bound** — RiskRoute with full control of every network's
  routing decisions.

The ratio between the two is what Figure 8 plots per regional network.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

from ..risk.model import RiskModel
from ..session import RoutingSession
from ..topology.interdomain import InterdomainTopology
from ..topology.peering import corpus_peering
from ..topology.zoo import all_networks
from .ratios import RatioResult
from .strategy import SweepStrategy

__all__ = ["InterdomainRouter", "corpus_merge", "regional_pair_population"]


class InterdomainRouter:
    """Routes over a merged interdomain topology.

    Args:
        topology: the merged multi-network topology.
        model: a risk model covering every PoP of the merge
            (see :meth:`RiskModel.for_interdomain`).

    Attributes:
        session: the :class:`~repro.session.RoutingSession` over the
            merged graph; it holds the current model (``session.model``)
            and takes forecast swaps (``session.update_forecast``) that
            re-evaluate on warm caches.
    """

    def __init__(self, topology: InterdomainTopology, model: RiskModel) -> None:
        self.topology = topology
        self.session = RoutingSession(topology.merged_graph(), model)

    @property
    def engine(self):
        """The merged graph's :class:`~repro.engine.RoutingEngine`,
        owned by this router's session — batched consumers reuse its
        sweeps and caches (the Figure 11 peering search scores every
        candidate against it)."""
        return self.session.engine

    def regional_ratios(
        self, regional_name: str, destination_pops: Sequence[str]
    ) -> RatioResult:
        """rr/dr for one regional network's interdomain traffic.

        Per Section 7's protocol: every PoP of the regional network is a
        source; destinations are the supplied PoP set (the paper uses all
        PoPs of the 16 regional networks).  Runs as one batched engine
        query over the merged topology under ``PER_SOURCE`` (one sweep
        per source: exact per-pair optimization is slow on the ~800-PoP
        merge), sharing sweeps with every other evaluation on this
        router.

        Args:
            regional_name: the source network.
            destination_pops: target PoPs (sources themselves excluded).

        Raises:
            KeyError: for a network not in the merge.
            ValueError: when no reachable pair exists.
        """
        if regional_name not in self.topology.networks:
            raise KeyError(f"unknown network {regional_name!r}")
        sources = self.topology.networks[regional_name].pop_ids()
        return self.session.all_pairs(
            sources=sources,
            targets=destination_pops,
            strategy=SweepStrategy.PER_SOURCE,
        )


@lru_cache(maxsize=1)
def corpus_merge() -> Tuple[InterdomainTopology, RiskModel]:
    """All 23 corpus networks merged over the corpus peering graph, and
    its risk model (Figures 8, 11 and 13).

    Built once per process and shared: callers swap models into their
    own sessions and never mutate either object.
    """
    topology = InterdomainTopology(list(all_networks()), corpus_peering())
    return topology, RiskModel.for_interdomain(topology)


def regional_pair_population(
    topology: InterdomainTopology,
) -> List[str]:
    """The paper's interdomain destination set: every PoP of every
    regional network in the merge."""
    out: List[str] = []
    for network in topology.networks.values():
        if network.tier == "regional":
            out.extend(network.pop_ids())
    return out
