"""The merged interdomain topology (Section 6.2).

Interdomain RiskRoute reasons over a single graph containing every PoP of
every network, with two kinds of edges: the intradomain line-of-sight
links of each ISP, and cross-network peering edges placed wherever two
ISPs with an AS relationship have co-located PoPs (networks interconnect
inside shared metro facilities, not across arbitrary distances).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..geo.distance import haversine_miles
from ..graph.core import Graph
from .network import Network, PoP
from .peering import PeeringGraph

__all__ = ["InterdomainTopology", "CandidatePeering", "CO_LOCATION_MILES"]

#: Two PoPs within this great-circle distance count as co-located (the
#: metro-jitter rings of the builders stay well inside it).
CO_LOCATION_MILES = 40.0


@dataclass(frozen=True)
class CandidatePeering:
    """A possible new peering: a co-located PoP pair across two networks
    with no existing AS relationship."""

    network_a: str
    network_b: str
    pop_a: str
    pop_b: str
    distance_miles: float


class InterdomainTopology:
    """The PoP-level merger of a set of networks under a peering graph.

    A peering edge joins two PoPs of peered ISPs that lie within
    :data:`CO_LOCATION_MILES` of each other.

    Args:
        networks: the ISPs to merge.
        peering: which pairs of ISPs interconnect.

    Raises:
        ValueError: for duplicate network names or PoP ids.
    """

    def __init__(
        self, networks: Sequence[Network], peering: PeeringGraph
    ) -> None:
        names = [n.name for n in networks]
        if len(set(names)) != len(names):
            raise ValueError("duplicate network names in the merge set")
        self.networks: Dict[str, Network] = {n.name: n for n in networks}
        self.peering = peering
        self._owner: Dict[str, str] = {}
        for network in networks:
            for pop_id in network.pop_ids():
                if pop_id in self._owner:
                    raise ValueError(f"duplicate PoP id {pop_id!r}")
                self._owner[pop_id] = network.name
        self._peering_edges = self._compute_peering_edges()

    # -- structure ----------------------------------------------------------

    def owner_of(self, pop_id: str) -> str:
        """Name of the network owning ``pop_id``.

        Raises:
            KeyError: for an unknown PoP.
        """
        if pop_id not in self._owner:
            raise KeyError(f"unknown PoP {pop_id!r}")
        return self._owner[pop_id]

    def pop(self, pop_id: str) -> PoP:
        """Look up a PoP anywhere in the merged topology."""
        return self.networks[self.owner_of(pop_id)].pop(pop_id)

    def _co_located_pairs(
        self, net_a: Network, net_b: Network
    ) -> List[Tuple[str, str, float]]:
        pairs: List[Tuple[str, str, float]] = []
        for pop_a in net_a.pops():
            for pop_b in net_b.pops():
                dist = haversine_miles(pop_a.location, pop_b.location)
                if dist <= CO_LOCATION_MILES:
                    pairs.append((pop_a.pop_id, pop_b.pop_id, dist))
        return pairs

    def _compute_peering_edges(self) -> List[Tuple[str, str, float]]:
        edges: List[Tuple[str, str, float]] = []
        names = list(self.networks)
        for i, name_a in enumerate(names):
            for name_b in names[i + 1 :]:
                if not self.peering.are_peers(name_a, name_b):
                    continue
                edges.extend(
                    self._co_located_pairs(
                        self.networks[name_a], self.networks[name_b]
                    )
                )
        return edges

    def merged_graph(self) -> Graph[str]:
        """Build the merged distance-weighted graph."""
        graph: Graph[str] = Graph()
        for network in self.networks.values():
            for pop_id in network.pop_ids():
                graph.add_node(pop_id)
            for link in network.links():
                graph.add_edge(link.pop_a, link.pop_b, link.length_miles)
        for pop_a, pop_b, dist in self._peering_edges:
            if not graph.has_edge(pop_a, pop_b):
                graph.add_edge(pop_a, pop_b, dist)
        return graph

    # -- candidate peering discovery (Section 6.3) ---------------------------

    def candidate_peerings(self, network_name: str) -> List[CandidatePeering]:
        """Co-located PoP pairs between ``network_name`` and networks it
        does not currently peer with (Figure 11's candidate set).

        Raises:
            KeyError: for a network not in the merge set.
        """
        if network_name not in self.networks:
            raise KeyError(f"unknown network {network_name!r}")
        base = self.networks[network_name]
        candidates: List[CandidatePeering] = []
        for other_name, other in self.networks.items():
            if other_name == network_name:
                continue
            if self.peering.are_peers(network_name, other_name):
                continue
            for pop_a, pop_b, dist in self._co_located_pairs(base, other):
                candidates.append(
                    CandidatePeering(
                        network_a=network_name,
                        network_b=other_name,
                        pop_a=pop_a,
                        pop_b=pop_b,
                        distance_miles=dist,
                    )
                )
        return candidates

    def candidate_peer_networks(self, network_name: str) -> List[str]:
        """Distinct networks offering at least one candidate peering."""
        return sorted(
            {c.network_b for c in self.candidate_peerings(network_name)}
        )
