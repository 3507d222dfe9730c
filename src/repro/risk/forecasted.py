"""Forecasted outage risk per PoP (Section 5.3).

Wraps one or more advisory-derived wind fields into the ``o_f`` term of
the bit-risk-miles metric: the forecast risk of a PoP is the maximum of
its risk under each snapshot.  The paper re-routes advisory by advisory,
so one snapshot is active at a time; multi-storm situations, and the
lead-discounted projections of
:func:`~repro.forecast.projection.anticipatory_snapshots`, take the max.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from ..forecast.risk import ForecastSnapshot
from ..topology.network import Network

__all__ = ["ForecastedRiskModel"]


class ForecastedRiskModel:
    """``o_f`` as the maximum over zero or more forecast snapshots."""

    def __init__(self, snapshots: Iterable[ForecastSnapshot]) -> None:
        self._snapshots: List[ForecastSnapshot] = list(snapshots)

    def _network_risks(self, network: Network) -> "np.ndarray":
        """``o_f`` per PoP, in ``network.pops()`` order: each snapshot
        is evaluated once on the network's (lat, lon) array."""
        latlon = network.latlon()
        best = np.zeros(latlon.shape[0], dtype=np.float64)
        for snapshot in self._snapshots:
            np.maximum(best, snapshot.risks_many(latlon), out=best)
        return best

    def pop_risks(self, network: Network) -> Dict[str, float]:
        """``o_f`` for every PoP of a network, keyed by PoP id."""
        risks = self._network_risks(network)
        return {
            pop.pop_id: float(risk)
            for pop, risk in zip(network.pops(), risks)
        }

    def pops_in_scope(self, network: Network) -> List[str]:
        """PoPs with non-zero forecast risk (the storm's network scope)."""
        risks = self._network_risks(network)
        return [
            pop.pop_id
            for pop, risk in zip(network.pops(), risks)
            if risk > 0.0
        ]
