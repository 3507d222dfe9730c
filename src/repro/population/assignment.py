"""Nearest-neighbour population assignment (Section 5.1).

Every census block is assigned to the closest PoP of a network; the
fraction of total population served by PoP ``i`` is its share ``c_i``, and
the outage impact of a PoP pair is ``alpha_ij = c_i + c_j``.

For geographically constrained regional networks, only the population of
the states where the network has infrastructure is considered, exactly as
the paper specifies.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..geo.regions import states_region
from ..topology.network import Network, PoP
from .census import CensusData

__all__ = ["PopulationAssignment", "assign_population", "network_population_shares"]

_CHUNK = 16_384


class PopulationAssignment:
    """The result of assigning a census corpus to a set of PoPs."""

    def __init__(
        self, shares: Dict[str, float], total_population: float
    ) -> None:
        if total_population < 0:
            raise ValueError("total_population must be non-negative")
        for pop_id, share in shares.items():
            if share < 0 or share > 1.0 + 1e-9:
                raise ValueError(f"share of {pop_id!r} out of [0,1]: {share}")
        self._shares = dict(shares)
        self.total_population = float(total_population)

    def share(self, pop_id: str) -> float:
        """Fraction ``c_i`` of population served by ``pop_id``.

        Raises:
            KeyError: for a PoP that was not part of the assignment.
        """
        if pop_id not in self._shares:
            raise KeyError(f"no share recorded for PoP {pop_id!r}")
        return self._shares[pop_id]

    def impact(self, pop_i: str, pop_j: str) -> float:
        """Outage impact ``alpha_ij = c_i + c_j`` of a PoP pair."""
        return self.share(pop_i) + self.share(pop_j)

    def shares(self) -> Dict[str, float]:
        """All shares as a plain dict (copy)."""
        return dict(self._shares)


def assign_population(
    census: CensusData, pops: Sequence[PoP]
) -> PopulationAssignment:
    """Assign each census block to the nearest PoP, returning shares.

    Distance is great-circle; the computation is chunked so the block ×
    PoP distance matrix never exceeds ~16k x N.

    Raises:
        ValueError: with no PoPs or an empty census.
    """
    if not pops:
        raise ValueError("need at least one PoP")
    if census.block_count == 0:
        raise ValueError("census has no blocks")

    pop_lat = np.radians(np.array([p.location.lat for p in pops]))
    pop_lon = np.radians(np.array([p.location.lon for p in pops]))
    cos_pop_lat = np.cos(pop_lat)

    served = np.zeros(len(pops), dtype=np.float64)
    block_lat = np.radians(census.lat)
    block_lon = np.radians(census.lon)

    for start in range(0, census.block_count, _CHUNK):
        end = min(start + _CHUNK, census.block_count)
        dlat = block_lat[start:end, None] - pop_lat[None, :]
        dlon = block_lon[start:end, None] - pop_lon[None, :]
        # Haversine "h" term is monotone in distance: argmin over h is
        # argmin over distance, so we skip the arcsin for speed.
        h = (
            np.sin(dlat / 2.0) ** 2
            + np.cos(block_lat[start:end])[:, None]
            * cos_pop_lat[None, :]
            * np.sin(dlon / 2.0) ** 2
        )
        nearest = np.argmin(h, axis=1)
        np.add.at(served, nearest, census.population[start:end])

    total = census.total_population
    shares = {
        pop.pop_id: float(served[i] / total) for i, pop in enumerate(pops)
    }
    return PopulationAssignment(shares, total)


def network_population_shares(
    network: Network, census: CensusData
) -> PopulationAssignment:
    """Population shares for one network, honouring regional footprints.

    Tier-1 networks are assigned the full continental population;
    regional networks only the population of their footprint states
    (Section 5.1).
    """
    working = census
    if network.tier == "regional" and network.states:
        working = census.restricted_to(states_region(list(network.states)))
        if working.block_count == 0:
            raise ValueError(
                f"no census blocks inside the footprint of {network.name}"
            )
    return assign_population(working, network.pops())
