"""Traffic-weighted evaluation.

The paper's Equations 5-6 average the per-pair ratios uniformly; with a
traffic matrix available the natural refinement weights each pair by its
demand — a flow carrying half the network's traffic matters more than a
trickle between two stub PoPs.  This module provides the weighted
variants plus the total *bit-risk-mile volume* (demand-weighted sum of
route costs), the quantity a capacity planner would minimise.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.ratios import RatioResult
from ..core.riskroute import PairRoutes
from ..core.strategy import auto_strategy
from ..session import RoutingSession
from .gravity import TrafficMatrix

__all__ = ["TrafficWeightedResult", "traffic_weighted_ratios"]


@dataclass(frozen=True)
class TrafficWeightedResult:
    """Demand-weighted rr/dr plus the routed volumes."""

    ratios: RatioResult
    shortest_volume: float
    riskroute_volume: float

    @property
    def volume_reduction(self) -> float:
        """Fractional cut in total bit-risk-mile volume."""
        if self.shortest_volume == 0.0:
            return 0.0
        return 1.0 - self.riskroute_volume / self.shortest_volume


def traffic_weighted_ratios(
    session: RoutingSession, matrix: TrafficMatrix
) -> TrafficWeightedResult:
    """Demand-weighted Equations 5-6 over a network.

    The sweep strategy is picked by size, as
    :meth:`RoutingSession.all_pairs` does
    (:func:`~repro.core.strategy.auto_strategy`).

    Args:
        session: the routing session for the network.
        matrix: demand between the session's PoPs.

    Raises:
        ValueError: when no pair carries demand.
        KeyError: when the matrix covers PoPs the session does not.
    """
    strategy = auto_strategy(session.engine.node_count)

    weighted_risk = 0.0
    weighted_dist = 0.0
    weight_total = 0.0
    shortest_volume = 0.0
    riskroute_volume = 0.0
    pair_count = 0

    for source in matrix.pop_ids:
        for target, base in session.shortest_from(source).items():
            try:
                demand = matrix.demand(source, target)
            except KeyError:
                continue
            if demand <= 0.0:
                continue
            pair = PairRoutes(base, session.route(source, target, strategy))
            pair_count += 1
            weight_total += demand
            weighted_risk += demand * pair.risk_ratio
            weighted_dist += demand * pair.distance_ratio
            shortest_volume += demand * base.bit_risk_miles
            riskroute_volume += demand * pair.riskroute.bit_risk_miles

    if weight_total <= 0.0:
        raise ValueError("no demand-carrying pairs to evaluate")
    ratios = RatioResult(
        risk_reduction_ratio=1.0 - weighted_risk / weight_total,
        distance_increase_ratio=weighted_dist / weight_total - 1.0,
        pair_count=pair_count,
    )
    return TrafficWeightedResult(
        ratios=ratios,
        shortest_volume=shortest_volume,
        riskroute_volume=riskroute_volume,
    )
