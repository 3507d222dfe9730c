"""Forecasted outage risk per PoP (Section 5.3).

Wraps one or more advisory-derived wind fields into the ``o_f`` term of
the bit-risk-miles metric: the forecast risk of a PoP is its risk under
the *current* snapshot (the paper re-routes advisory by advisory, so one
snapshot is active at a time; multi-storm situations take the max).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from ..forecast.risk import ForecastSnapshot
from ..geo.coords import GeoPoint
from ..topology.network import Network

__all__ = ["ForecastedRiskModel", "no_forecast"]


class ForecastedRiskModel:
    """``o_f`` from zero or more active forecast snapshots."""

    def __init__(self, snapshots: Iterable[ForecastSnapshot] = ()) -> None:
        self._snapshots: List[ForecastSnapshot] = list(snapshots)

    def risk_at(self, point: GeoPoint) -> float:
        """``o_f`` at a location: max over active snapshots, 0 if none."""
        best = 0.0
        for snapshot in self._snapshots:
            risk = snapshot.risk_at(point)
            if risk > best:
                best = risk
        return best

    def risk_many(self, points: Sequence[GeoPoint]) -> List[float]:
        """``o_f`` at each point."""
        return [self.risk_at(p) for p in points]

    def pop_risks(self, network: Network) -> Dict[str, float]:
        """``o_f`` for every PoP of a network, keyed by PoP id."""
        return {
            pop.pop_id: self.risk_at(pop.location) for pop in network.pops()
        }

    def pops_in_scope(self, network: Network) -> List[str]:
        """PoPs with non-zero forecast risk (the storm's network scope)."""
        return [
            pop.pop_id
            for pop in network.pops()
            if self.risk_at(pop.location) > 0.0
        ]


def no_forecast() -> ForecastedRiskModel:
    """The calm-weather model: ``o_f = 0`` everywhere."""
    return ForecastedRiskModel(())
