"""Outage impact per PoP pair (Section 5.1).

``alpha_ij = c_i + c_j`` where ``c_i`` is the fraction of population
served by PoP ``i`` under nearest-neighbour assignment.  This module
caches per-network assignments so the experiments can ask for impacts
repeatedly without re-running the census sweep, which takes seconds
on a large network.  The cache is keyed by what the assignment
reads — tier, footprint states, and each PoP's id and coordinates —
not by network name, so two networks that share a name never share
population shares.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..population.assignment import (
    PopulationAssignment,
    network_population_shares,
)
from ..population.census import CensusData, synthetic_census
from ..topology.network import Network

__all__ = ["ImpactModel", "network_impact_model"]


class ImpactModel:
    """``alpha_ij`` backed by a population assignment."""

    def __init__(self, assignment: PopulationAssignment) -> None:
        self._assignment = assignment

    def share(self, pop_id: str) -> float:
        """``c_i`` of one PoP."""
        return self._assignment.share(pop_id)

    def impact(self, pop_i: str, pop_j: str) -> float:
        """``alpha_ij = c_i + c_j``."""
        return self._assignment.impact(pop_i, pop_j)

    def mean_share(self) -> float:
        """Average ``c_i`` across the assignment's PoPs."""
        shares = self._assignment.shares()
        if not shares:
            return 0.0
        return sum(shares.values()) / len(shares)

    def shares(self) -> Dict[str, float]:
        """All shares (copy)."""
        return self._assignment.shares()


_MODEL_CACHE: Dict[Tuple, ImpactModel] = {}


def network_impact_model(
    network: Network, census: Optional[CensusData] = None
) -> ImpactModel:
    """The impact model of a network (cached per network content).

    Uses the default synthetic census when none is supplied; custom
    census data bypasses the cache.
    """
    if census is not None:
        return ImpactModel(network_population_shares(network, census))
    key = (
        network.tier,
        network.states,
        tuple(
            (pop.pop_id, pop.location.lat, pop.location.lon)
            for pop in network.pops()
        ),
    )
    if key not in _MODEL_CACHE:
        _MODEL_CACHE[key] = ImpactModel(
            network_population_shares(network, synthetic_census())
        )
    return _MODEL_CACHE[key]
