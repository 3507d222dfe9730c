"""Exporting RiskRoute into OSPF/IS-IS link weights (Section 3.1).

The most direct deployment path the paper describes: fold the RiskRoute
metric into the link weights of a standard shortest-path IGP, so
unmodified routers compute risk-averse paths.  A link's composite weight
charges its mileage plus the expected impact-scaled risk of entering
either endpoint (split across the link's two directions by halving),
scaled into OSPF's 16-bit integer cost space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..graph.core import Graph
from ..risk.model import RiskModel
from ..session import RoutingSession
from ..topology.network import Network

__all__ = ["OspfWeightTable", "export_ospf_weights", "ospf_fidelity"]

#: OSPF interface cost ceiling (16-bit).
MAX_OSPF_COST = 65_535


@dataclass(frozen=True)
class OspfWeightTable:
    """Integer link costs ready for router configuration."""

    network: str
    costs: Dict[Tuple[str, str], int]
    scale_miles_per_unit: float

    def as_graph(self) -> Graph[str]:
        """The weighted graph OSPF would route on."""
        graph: Graph[str] = Graph()
        for (pop_a, pop_b), cost in self.costs.items():
            graph.add_edge(pop_a, pop_b, float(cost))
        return graph


def export_ospf_weights(
    network: Network, model: RiskModel
) -> OspfWeightTable:
    """Compute composite OSPF link costs from the RiskRoute metric.

    The per-link composite is
    ``miles + mean_alpha * (node_risk(a) + node_risk(b)) / 2`` — entering
    either endpoint charges half its risk to each incident link, with the
    pair impact approximated by the network's mean (link weights cannot
    depend on flow endpoints).  Costs are scaled to fit 16 bits.

    Raises:
        ValueError: for a network with no links.
    """
    links = network.links()
    if not links:
        raise ValueError(f"{network.name} has no links to weight")
    shares = [model.share(p) for p in network.pop_ids()]
    mean_alpha = 2.0 * sum(shares) / len(shares)

    raw: Dict[Tuple[str, str], float] = {}
    for link in links:
        risk_charge = (
            model.node_risk(link.pop_a) + model.node_risk(link.pop_b)
        ) / 2.0
        raw[link.endpoints] = link.length_miles + mean_alpha * risk_charge

    largest = max(raw.values())
    scale = max(1.0, largest / (MAX_OSPF_COST - 1))
    costs = {
        key: max(1, int(round(value / scale))) for key, value in raw.items()
    }
    return OspfWeightTable(
        network=network.name, costs=costs, scale_miles_per_unit=scale
    )


def ospf_fidelity(
    network: Network, model: RiskModel, sample_pairs: int = 200
) -> float:
    """How closely OSPF-on-composite-weights tracks true RiskRoute.

    Routes every sampled PoP pair both ways and returns the mean ratio of
    the OSPF path's bit-risk miles to the exact RiskRoute optimum
    (>= 1.0; 1.0 = perfect fidelity).  Pairs are sampled deterministically
    by stride.

    Raises:
        ValueError: for a non-positive sample size.
    """
    if sample_pairs < 1:
        raise ValueError("sample_pairs must be positive")
    table = export_ospf_weights(network, model)
    ospf_session = RoutingSession(table.as_graph(), model)
    true_session = RoutingSession(network.distance_graph(), model)

    pop_ids = network.pop_ids()
    pairs: List[Tuple[str, str]] = [
        (a, b) for i, a in enumerate(pop_ids) for b in pop_ids[i + 1 :]
    ]
    stride = max(1, len(pairs) // sample_pairs)
    ratios: List[float] = []
    from .bitrisk import path_metrics

    for source, target in pairs[::stride]:
        ospf_path = ospf_session.shortest(source, target).path
        ospf_cost = path_metrics(
            true_session.graph, list(ospf_path), model
        ).bit_risk_miles
        optimum = true_session.route(source, target).bit_risk_miles
        if optimum > 0:
            ratios.append(ospf_cost / optimum)
    return sum(ratios) / len(ratios) if ratios else 1.0
