"""Shared risk between ISPs (the Section 8 future-work item).

Two providers that concentrate infrastructure in the same high-risk
metros fail together; a provider choosing a backup transit wants one
whose exposure is *anti*-correlated with its own.  This module
quantifies that:

* **co-location overlap** — the fraction of a network's PoPs with a
  co-located PoP in the other network,
* **risk profile divergence** — the Jensen-Shannon divergence between
  the two networks' normalised per-PoP historical risk mass, evaluated
  on a common metro grid (0 = identical exposure),
* **shared metro risk** — the risk mass the two profiles have in common.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..geo.coords import CONTINENTAL_US
from ..geo.distance import haversine_miles
from ..geo.grid import GeoGrid
from ..risk.historical import HistoricalRiskModel, default_historical_model
from ..stats.divergence import jensen_shannon_discrete
from ..topology.interdomain import CO_LOCATION_MILES
from ..topology.network import Network

__all__ = ["SharedRiskReport", "shared_risk_report"]

#: Grid used to compare risk profiles (~1.7 degree metro-scale cells).
_PROFILE_GRID = GeoGrid(CONTINENTAL_US, n_lat=15, n_lon=35)


@dataclass(frozen=True)
class SharedRiskReport:
    """How entangled two networks' outage exposure is."""

    network_a: str
    network_b: str
    colocation_fraction_a: float
    colocation_fraction_b: float
    risk_profile_divergence: float
    shared_metro_risk: float

    @property
    def diversification_score(self) -> float:
        """Higher = better backup choice: geographically and risk-wise
        disjoint.  Combines profile divergence (ln 2 max) with the
        complement of co-location overlap."""
        overlap = (self.colocation_fraction_a + self.colocation_fraction_b) / 2
        return float(
            (self.risk_profile_divergence / np.log(2.0)) * (1.0 - overlap)
        )


def _risk_profile(
    network: Network, historical: HistoricalRiskModel
) -> "np.ndarray":
    """Risk mass per grid cell, normalised to sum 1."""
    cells = np.zeros(_PROFILE_GRID.shape, dtype=np.float64)
    pops = network.pops()
    risks = historical.risks_array(network.latlon())
    for pop, risk in zip(pops, risks):
        i, j = _PROFILE_GRID.cell_of(pop.location)
        cells[i, j] += risk
    flat = cells.ravel()
    total = flat.sum()
    if total <= 0:
        raise ValueError(f"{network.name} has zero total risk")
    return flat / total


def _colocation_fraction(a: Network, b: Network) -> float:
    hits = 0
    b_locations = [p.location for p in b.pops()]
    for pop in a.pops():
        if any(
            haversine_miles(pop.location, other) <= CO_LOCATION_MILES
            for other in b_locations
        ):
            hits += 1
    return hits / a.pop_count if a.pop_count else 0.0


def shared_risk_report(
    a: Network,
    b: Network,
    historical: Optional[HistoricalRiskModel] = None,
) -> SharedRiskReport:
    """Quantify the shared outage exposure of two networks.

    Raises:
        ValueError: when either network carries no historical risk.
    """
    historical = historical or default_historical_model()
    profile_a = _risk_profile(a, historical)
    profile_b = _risk_profile(b, historical)
    divergence = jensen_shannon_discrete(profile_a, profile_b)
    shared = float(np.minimum(profile_a, profile_b).sum())
    return SharedRiskReport(
        network_a=a.name,
        network_b=b.name,
        colocation_fraction_a=_colocation_fraction(a, b),
        colocation_fraction_b=_colocation_fraction(b, a),
        risk_profile_divergence=float(divergence),
        shared_metro_risk=shared,
    )
