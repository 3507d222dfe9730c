"""A gravity-model traffic matrix.

Section 5 of the paper notes that "the impact of an outage could also be
influenced by traffic flows between two PoPs".  Real traffic matrices
are proprietary, so we synthesize the standard first-order model:
demand between PoPs is proportional to the product of the populations
they serve, attenuated by distance,

    t_ij  ~  (c_i * c_j) / max(d_ij, d_floor)^beta

normalised so all demands sum to 1.  ``beta = 1`` and ``d_floor = 50``
miles give the distance-discounted mix observed in inter-metro traffic
studies.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..geo.distance import great_circle_miles
from ..population.assignment import network_population_shares
from ..topology.network import Network

__all__ = ["TrafficMatrix", "gravity_matrix"]

#: Distance-attenuation exponent.
_BETA = 1.0

#: Distance floor (miles) preventing metro-internal blowups.
_DISTANCE_FLOOR_MILES = 50.0


class TrafficMatrix:
    """Symmetric normalised demand between a fixed PoP set."""

    def __init__(self, pop_ids: Sequence[str], demands: "np.ndarray") -> None:
        demands = np.asarray(demands, dtype=np.float64)
        n = len(pop_ids)
        if demands.shape != (n, n):
            raise ValueError(
                f"demand matrix shape {demands.shape} != ({n}, {n})"
            )
        if (demands < 0).any():
            raise ValueError("demands must be non-negative")
        if not np.allclose(demands, demands.T):
            raise ValueError("demand matrix must be symmetric")
        if np.diagonal(demands).any():
            raise ValueError("self-demand must be zero")
        total = demands.sum()
        if total <= 0:
            raise ValueError("demand matrix must have positive total")
        self._pop_ids = list(pop_ids)
        self._index = {pop_id: i for i, pop_id in enumerate(self._pop_ids)}
        if len(self._index) != n:
            raise ValueError("duplicate PoP ids")
        self._demands = demands / total

    @property
    def pop_ids(self) -> List[str]:
        """The PoPs the matrix covers."""
        return list(self._pop_ids)

    def demand(self, pop_i: str, pop_j: str) -> float:
        """Normalised demand between two PoPs (0 for i == j).

        Raises:
            KeyError: for unknown PoPs.
        """
        if pop_i not in self._index:
            raise KeyError(f"unknown PoP {pop_i!r}")
        if pop_j not in self._index:
            raise KeyError(f"unknown PoP {pop_j!r}")
        return float(self._demands[self._index[pop_i], self._index[pop_j]])

    def as_array(self) -> "np.ndarray":
        """Copy of the normalised demand matrix."""
        return self._demands.copy()


def gravity_matrix(network: Network) -> TrafficMatrix:
    """Build the gravity-model traffic matrix of a network.

    Raises:
        ValueError: for fewer than two PoPs.
    """
    pops = network.pops()
    if len(pops) < 2:
        raise ValueError("need at least two PoPs for a traffic matrix")
    share_of = network_population_shares(network)
    shares = np.array([share_of[p.pop_id] for p in pops])
    # Zero-population PoPs still attract a trickle of traffic.
    shares = np.maximum(shares, 1e-6)
    latlon = network.latlon()
    distance = great_circle_miles(latlon, latlon)
    np.maximum(distance, _DISTANCE_FLOOR_MILES, out=distance)
    demands = np.outer(shares, shares) / distance**_BETA
    np.fill_diagonal(demands, 0.0)
    return TrafficMatrix([p.pop_id for p in pops], demands)
