"""Nearest-neighbour population assignment (Section 5.1).

Every census block is assigned to the closest PoP of a network; the
fraction of total population served by PoP ``i`` is its share ``c_i``, and
the outage impact of a PoP pair is ``alpha_ij = c_i + c_j``.

For geographically constrained regional networks, only the population of
the states where the network has infrastructure is considered, exactly as
the paper specifies.

The nearest PoP of a block is the ``argmin`` of the haversine ``h``
term, ties going to the lowest PoP index.  The sweep finds it as the
largest dot product of unit vectors (one ``einsum`` per chunk) and
recomputes ``h`` only for the rare rows where a second PoP's dot lies
within :data:`_TIE_MARGIN` of the best, so every block gets the PoP
the ``h`` argmin gives, bit for bit.

Shares under the synthetic census are memoized (a Level3 sweep
over 215,932 blocks takes about 0.2 s).  The memo is keyed by what the
assignment reads — tier, footprint states, and each PoP's id and
coordinates — not by network name, so two networks that share a name
never share population shares.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..geo.regions import states_region
from ..stats.kde import _unit_xyz
from ..topology.network import Network
from .census import CensusData, synthetic_census

__all__ = ["assign_population", "network_population_shares"]

#: Census blocks per chunk.  On Level3 (233 PoPs) 1024 and 2048 ran
#: fastest (0.16-0.20 s), and the (chunk x PoPs) work matrices stay at a
#: few MB.
_CHUNK = 2048

#: Dot-product gap below which a second PoP may be as near as the best.
#: Unit-vector dots and the haversine ``h`` each round within ~1e-15,
#: so a gap above this margin orders both the same way.
_TIE_MARGIN = 1e-12

#: Network content -> its shares under the synthetic census.
_SHARES_MEMO: Dict[Tuple, Dict[str, float]] = {}


def assign_population(
    census: CensusData, network: Network
) -> Dict[str, float]:
    """Assign each census block to the nearest PoP of ``network``:
    ``{pop_id: c_i}``, in PoP order.

    Distance is great-circle (see the module docstring for the tie
    rule); the sweep is chunked so the block x PoP work matrices never
    exceed :data:`_CHUNK` rows.  Populations are summed in block order.

    Raises:
        ValueError: with no PoPs or an empty census.
    """
    pop_ids = network.pop_ids()
    if not pop_ids:
        raise ValueError("need at least one PoP")
    if census.block_count == 0:
        raise ValueError("census has no blocks")
    latlon = network.latlon()
    nearest = _nearest_pops(
        census.lat, census.lon, latlon[:, 0], latlon[:, 1]
    )
    served = np.zeros(len(pop_ids), dtype=np.float64)
    np.add.at(served, nearest, census.population)
    total = census.total_population
    return {
        pop_id: float(served[i] / total) for i, pop_id in enumerate(pop_ids)
    }


def _nearest_pops(
    block_lat_deg: "np.ndarray",
    block_lon_deg: "np.ndarray",
    pop_lat_deg: "np.ndarray",
    pop_lon_deg: "np.ndarray",
) -> "np.ndarray":
    """Index of each block's nearest PoP: the argmin of the haversine
    ``h`` term, ties to the lowest index (see the module docstring)."""
    pop_xyz = np.ascontiguousarray(
        _unit_xyz(np.column_stack((pop_lat_deg, pop_lon_deg))).T
    )
    pop_lat = np.radians(pop_lat_deg)
    pop_lon = np.radians(pop_lon_deg)
    cos_pop_lat = np.cos(pop_lat)
    nearest = np.empty(len(block_lat_deg), dtype=np.intp)
    for start in range(0, len(block_lat_deg), _CHUNK):
        lat_deg = block_lat_deg[start:start + _CHUNK]
        lon_deg = block_lon_deg[start:start + _CHUNK]
        # einsum runs numpy's own loops, not BLAS.  After a BLAS matmul
        # here, a Level3 daemon spent about a quarter more CPU per
        # request at a paced 60 pairs/s (2-vCPU host); after einsum it
        # spent what it did before the matmul.
        xyz = _unit_xyz(np.column_stack((lat_deg, lon_deg)))
        dots = np.einsum("ij,jk->ik", xyz, pop_xyz)
        rows = np.arange(len(lat_deg))
        best = np.argmax(dots, axis=1)
        top = dots[rows, best]
        dots[rows, best] = -np.inf
        near_tie = np.flatnonzero(dots.max(axis=1) >= top - _TIE_MARGIN)
        if near_tie.size:
            # Haversine "h" is monotone in distance, so its argmin is
            # the nearest PoP; the arcsin is skipped.
            lat = np.radians(lat_deg[near_tie])
            dlat = lat[:, None] - pop_lat[None, :]
            dlon = np.radians(lon_deg[near_tie])[:, None] - pop_lon[None, :]
            h = (
                np.sin(dlat / 2.0) ** 2
                + np.cos(lat)[:, None]
                * cos_pop_lat[None, :]
                * np.sin(dlon / 2.0) ** 2
            )
            best[near_tie] = np.argmin(h, axis=1)
        nearest[start:start + _CHUNK] = best
    return nearest


def network_population_shares(network: Network) -> Dict[str, float]:
    """``{pop_id: c_i}`` for one network, honouring regional footprints.

    Tier-1 networks are assigned the full continental population;
    regional networks only the population of their footprint states
    (Section 5.1).  The shares come from the synthetic census and are
    memoized (see the module docstring).  Returns a copy the caller may
    alter.
    """
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
    return assign_population(working, network)
