"""Network models: PoPs, links, and ISP topologies.

A :class:`Network` is the paper's unit of study — a named ISP with a set
of geolocated Points of Presence and the line-of-sight links between
them (Section 4.1).  Networks convert to distance-weighted graphs for
shortest-path routing and expose the structural characteristics studied
in Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geo.coords import GeoPoint
from ..geo.distance import haversine_miles
from ..graph.core import Graph

__all__ = ["PoP", "Link", "Network", "NetworkTier"]


class NetworkTier:
    """Network tier labels (plain constants; no enum machinery needed)."""

    TIER1 = "tier1"
    REGIONAL = "regional"


@dataclass(frozen=True)
class PoP:
    """A Point of Presence: a router site at a known location."""

    pop_id: str
    city: str
    location: GeoPoint

    def __post_init__(self) -> None:
        if not self.pop_id:
            raise ValueError("pop_id must be non-empty")


@dataclass(frozen=True)
class Link:
    """An undirected PoP-to-PoP link with its line-of-sight length."""

    pop_a: str
    pop_b: str
    length_miles: float

    def __post_init__(self) -> None:
        if self.pop_a == self.pop_b:
            raise ValueError("a link cannot connect a PoP to itself")
        if self.length_miles < 0:
            raise ValueError("length_miles must be non-negative")

    @property
    def endpoints(self) -> Tuple[str, str]:
        """Canonically ordered endpoint pair."""
        return tuple(sorted((self.pop_a, self.pop_b)))


class Network:
    """A named ISP topology.

    Args:
        name: ISP name (unique in a corpus).
        tier: :data:`NetworkTier.TIER1` or :data:`NetworkTier.REGIONAL`.
        states: for regional networks, the states whose population is
            assigned to the network (Section 5.1); empty for tier-1s,
            meaning the full continental US.
    """

    def __init__(
        self,
        name: str,
        tier: str = NetworkTier.TIER1,
        states: Optional[Sequence[str]] = None,
    ) -> None:
        if not name:
            raise ValueError("network name must be non-empty")
        if tier not in (NetworkTier.TIER1, NetworkTier.REGIONAL):
            raise ValueError(f"unknown tier {tier!r}")
        self.name = name
        self.tier = tier
        self.states: Tuple[str, ...] = tuple(states or ())
        self._pops: Dict[str, PoP] = {}
        self._links: Dict[Tuple[str, str], Link] = {}

    # -- construction -----------------------------------------------------

    def add_pop(self, pop: PoP) -> None:
        """Add a PoP.

        Raises:
            ValueError: if a PoP with the same id already exists.
        """
        if pop.pop_id in self._pops:
            raise ValueError(f"duplicate PoP id {pop.pop_id!r} in {self.name}")
        self._pops[pop.pop_id] = pop

    def add_link(self, pop_a: str, pop_b: str) -> Link:
        """Add a line-of-sight link between two existing PoPs.

        The length is the great-circle distance between the PoPs.

        Raises:
            KeyError: if either PoP is unknown.
            ValueError: if the link already exists or is a self-loop.
        """
        if pop_a not in self._pops:
            raise KeyError(f"unknown PoP {pop_a!r} in {self.name}")
        if pop_b not in self._pops:
            raise KeyError(f"unknown PoP {pop_b!r} in {self.name}")
        key = tuple(sorted((pop_a, pop_b)))
        if key in self._links:
            raise ValueError(f"link {key} already exists in {self.name}")
        length = haversine_miles(
            self._pops[pop_a].location, self._pops[pop_b].location
        )
        link = Link(pop_a, pop_b, length)
        self._links[key] = link
        return link

    def remove_link(self, pop_a: str, pop_b: str) -> None:
        """Remove an existing link.

        Raises:
            KeyError: if the link does not exist.
        """
        key = tuple(sorted((pop_a, pop_b)))
        if key not in self._links:
            raise KeyError(f"link {key} does not exist in {self.name}")
        del self._links[key]

    # -- queries -----------------------------------------------------------

    @property
    def pop_count(self) -> int:
        """Number of PoPs."""
        return len(self._pops)

    @property
    def link_count(self) -> int:
        """Number of links."""
        return len(self._links)

    def pops(self) -> List[PoP]:
        """All PoPs in insertion order."""
        return list(self._pops.values())

    def pop_ids(self) -> List[str]:
        """All PoP ids in insertion order."""
        return list(self._pops)

    def pop(self, pop_id: str) -> PoP:
        """Look up a PoP by id.

        Raises:
            KeyError: if unknown.
        """
        if pop_id not in self._pops:
            raise KeyError(f"unknown PoP {pop_id!r} in {self.name}")
        return self._pops[pop_id]

    def has_pop(self, pop_id: str) -> bool:
        """True when the network contains the PoP."""
        return pop_id in self._pops

    def links(self) -> List[Link]:
        """All links in insertion order."""
        return list(self._links.values())

    def has_link(self, pop_a: str, pop_b: str) -> bool:
        """True when a link between the PoPs exists."""
        return tuple(sorted((pop_a, pop_b))) in self._links

    def locations(self) -> List[GeoPoint]:
        """PoP locations in insertion order."""
        return [pop.location for pop in self._pops.values()]

    def latlon(self) -> "np.ndarray":
        """(N, 2) array of PoP (lat, lon) degrees in :meth:`pops` order."""
        return np.array(
            [(p.location.lat, p.location.lon) for p in self._pops.values()],
            dtype=np.float64,
        ).reshape(len(self._pops), 2)

    # -- derived structure --------------------------------------------------

    def distance_graph(self) -> Graph[str]:
        """The topology as a graph weighted by link miles (bit-miles)."""
        graph: Graph[str] = Graph()
        for pop_id in self._pops:
            graph.add_node(pop_id)
        for link in self._links.values():
            graph.add_edge(link.pop_a, link.pop_b, link.length_miles)
        return graph

    def geographic_footprint_miles(self) -> float:
        """Largest great-circle distance between any two PoPs (Table 3)."""
        locations = self.locations()
        best = 0.0
        for i, a in enumerate(locations):
            for b in locations[i + 1 :]:
                dist = haversine_miles(a, b)
                if dist > best:
                    best = dist
        return best

    def average_outdegree(self) -> float:
        """Mean PoP degree (Table 3's "average outdegree")."""
        if not self._pops:
            return 0.0
        return 2.0 * len(self._links) / len(self._pops)

    def copy(self) -> "Network":
        """Deep copy — used by what-if provisioning."""
        clone = Network(self.name, tier=self.tier, states=self.states)
        for pop in self._pops.values():
            clone.add_pop(pop)
        for link in self._links.values():
            clone.add_link(link.pop_a, link.pop_b)
        return clone

    def __repr__(self) -> str:
        return (
            f"Network({self.name!r}, tier={self.tier!r}, "
            f"pops={self.pop_count}, links={self.link_count})"
        )
