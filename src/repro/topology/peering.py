"""AS-level peering relationships (Section 4.1, Figure 2).

The paper derives between-AS connectivity from the CAIDA AS Relationship
dataset.  We provide (i) a parser for CAIDA's ``as-rel`` text format so
real data can be dropped in, and (ii) the synthetic peering matrix of the
23-network corpus: the tier-1s form a full peering mesh (settlement-free
interconnection) and each regional network buys transit from two to five
tier-1s, mirroring the structure visible in Figure 2.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

__all__ = [
    "PeeringGraph",
    "corpus_peering",
    "parse_caida_as_rel",
    "CORPUS_TRANSIT",
]


class PeeringGraph:
    """Undirected AS-level adjacency between named networks."""

    def __init__(self) -> None:
        self._adj: Dict[str, Set[str]] = {}

    def add_network(self, name: str) -> None:
        """Register a network (idempotent)."""
        if not name:
            raise ValueError("network name must be non-empty")
        self._adj.setdefault(name, set())

    def add_peering(self, a: str, b: str) -> None:
        """Record a peering/transit relationship between two networks.

        Idempotent; both networks are registered as needed.

        Raises:
            ValueError: for a self-peering.
        """
        if a == b:
            raise ValueError(f"{a!r} cannot peer with itself")
        self.add_network(a)
        self.add_network(b)
        self._adj[a].add(b)
        self._adj[b].add(a)

    def peers_of(self, name: str) -> List[str]:
        """Sorted peers of ``name``.

        Raises:
            KeyError: for an unknown network.
        """
        if name not in self._adj:
            raise KeyError(f"unknown network {name!r}")
        return sorted(self._adj[name])

    def are_peers(self, a: str, b: str) -> bool:
        """True when the two networks have a relationship."""
        return a in self._adj and b in self._adj[a]

    def peer_count(self, name: str) -> int:
        """Number of relationships of ``name`` (Table 3's "#peers")."""
        if name not in self._adj:
            raise KeyError(f"unknown network {name!r}")
        return len(self._adj[name])


#: The transit/peering providers of each regional network in the
#: synthetic corpus (Digex additionally peers with the Hibernia regional).
#: AT&T and Tinet are deliberately absent: they are the providers
#: Figure 11 finds to be the most valuable *new* peers, which requires
#: them to be missing from the existing relationships.
CORPUS_TRANSIT: Dict[str, Tuple[str, ...]] = {
    "Abilene": ("Level3", "Sprint", "Deutsche"),
    "ANS": ("Level3", "NTT", "Teliasonera", "Sprint", "Deutsche"),
    "Bandcon": ("Level3", "Teliasonera", "Sprint", "Deutsche"),
    "Bluebird": ("Level3", "Sprint", "Deutsche"),
    "British Tele.": ("Level3", "Sprint", "NTT", "Deutsche", "Teliasonera"),
    "CoStreet": ("Sprint", "Level3", "Teliasonera"),
    "Digex": ("Level3", "Deutsche", "Teliasonera", "Sprint", "Hibernia"),
    "Epoch": ("Sprint", "Level3", "Deutsche", "NTT"),
    "Globalcenter": ("Level3", "NTT", "Deutsche", "Teliasonera"),
    "Goodnet": ("Sprint", "Level3", "Deutsche"),
    "Gridnet": ("Level3", "Sprint"),
    "Hibernia": ("NTT", "Level3", "Teliasonera", "Sprint", "Deutsche"),
    "Iris": ("Level3", "Sprint"),
    "NTS": ("Sprint", "Level3", "NTT"),
    "Telepak": ("Level3", "Sprint"),
    "USA Network": ("Level3", "Sprint", "Deutsche"),
}

_TIER1_NAMES = (
    "Level3",
    "ATT",
    "Deutsche",
    "NTT",
    "Sprint",
    "Tinet",
    "Teliasonera",
)


def corpus_peering() -> PeeringGraph:
    """The AS-level peering of the 23-network corpus (Figure 2)."""
    graph = PeeringGraph()
    for i, a in enumerate(_TIER1_NAMES):
        graph.add_network(a)
        for b in _TIER1_NAMES[i + 1 :]:
            graph.add_peering(a, b)
    for regional, providers in CORPUS_TRANSIT.items():
        graph.add_network(regional)
        for provider in providers:
            graph.add_peering(regional, provider)
    return graph


def parse_caida_as_rel(
    lines: Iterable[str], names: Dict[int, str] = None
) -> PeeringGraph:
    """Parse CAIDA's ``as-rel`` serialization into a :class:`PeeringGraph`.

    The format is ``<as1>|<as2>|<relationship>`` with ``#`` comments,
    where relationship -1 is provider-to-customer and 0 is peer-to-peer;
    both become undirected adjacency here, as in the paper.

    Args:
        lines: an iterable of text lines (an open file works).
        names: optional ASN -> display-name map; unmapped ASNs become
            ``"AS<number>"``.

    Raises:
        ValueError: for a malformed record.
    """
    graph = PeeringGraph()
    mapping = names or {}
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        if len(parts) < 3:
            raise ValueError(f"malformed as-rel line: {raw!r}")
        try:
            as1, as2, rel = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValueError(f"malformed as-rel line: {raw!r}") from exc
        if rel not in (-1, 0):
            raise ValueError(f"unknown relationship code {rel} in {raw!r}")
        name1 = mapping.get(as1, f"AS{as1}")
        name2 = mapping.get(as2, f"AS{as2}")
        graph.add_peering(name1, name2)
    return graph
