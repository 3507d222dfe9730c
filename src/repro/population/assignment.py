"""Nearest-neighbour population assignment (Section 5.1).

Every census block is assigned to the closest PoP of a network; the
fraction of total population served by PoP ``i`` is its share ``c_i``, and
the outage impact of a PoP pair is ``alpha_ij = c_i + c_j``.

For geographically constrained regional networks, only the population of
the states where the network has infrastructure is considered, exactly as
the paper specifies.

Shares under the default synthetic census are memoized, because the
census sweep takes seconds on a large network.  The memo is keyed by
what the assignment reads — tier, footprint states, and each PoP's id
and coordinates — not by network name, so two networks that share a
name never share population shares.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..geo.regions import states_region
from ..topology.network import Network, PoP
from .census import CensusData, synthetic_census

__all__ = ["assign_population", "network_population_shares"]

_CHUNK = 16_384

#: Network content -> its shares under the default synthetic census.
_SHARES_MEMO: Dict[Tuple, Dict[str, float]] = {}


def assign_population(
    census: CensusData, pops: Sequence[PoP]
) -> Dict[str, float]:
    """Assign each census block to the nearest PoP: ``{pop_id: c_i}``.

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
    return {
        pop.pop_id: float(served[i] / total) for i, pop in enumerate(pops)
    }


def network_population_shares(
    network: Network, census: Optional[CensusData] = None
) -> Dict[str, float]:
    """``{pop_id: c_i}`` for one network, honouring regional footprints.

    Tier-1 networks are assigned the full continental population;
    regional networks only the population of their footprint states
    (Section 5.1).  Without ``census`` the default synthetic census is
    used and the shares are memoized (see the module docstring); a
    custom census bypasses the memo.  Returns a copy the caller may
    alter.
    """
    if census is not None:
        return _footprint_shares(network, census)
    key = (
        network.tier,
        network.states,
        tuple(
            (pop.pop_id, pop.location.lat, pop.location.lon)
            for pop in network.pops()
        ),
    )
    shares = _SHARES_MEMO.get(key)
    if shares is None:
        shares = _footprint_shares(network, synthetic_census())
        _SHARES_MEMO[key] = shares
    return dict(shares)


def _footprint_shares(
    network: Network, census: CensusData
) -> Dict[str, float]:
    working = census
    if network.tier == "regional" and network.states:
        working = census.restricted_to(states_region(list(network.states)))
        if working.block_count == 0:
            raise ValueError(
                f"no census blocks inside the footprint of {network.name}"
            )
    return assign_population(working, network.pops())
