"""A minimal weighted undirected graph.

RiskRoute's optimizer (Equation 3) reduces to shortest-path search on a
graph whose edge weights are per-hop bit-risk miles.  Rather than leaning
on an external graph library we keep a small, predictable adjacency-map
implementation tuned for the operations the framework needs: weight
updates when the risk field changes, cheap copies for what-if provisioning
(Equation 4), and deterministic iteration order everywhere.
"""

from __future__ import annotations

from typing import (
    Dict,
    Generic,
    Hashable,
    Iterator,
    List,
    Mapping,
    TypeVar,
)

__all__ = ["Graph", "EdgeExistsError", "NodeNotFoundError"]

N = TypeVar("N", bound=Hashable)


class NodeNotFoundError(KeyError):
    """Raised when an operation references a node not in the graph."""


class EdgeExistsError(ValueError):
    """Raised when adding an edge that already exists."""


class Graph(Generic[N]):
    """Weighted undirected simple graph with hashable nodes.

    Nodes and edges iterate in insertion order, which keeps every
    downstream computation (routing, provisioning search, ratio
    aggregation) fully deterministic.

    ``version`` counts topology changes: every mutator that changes the
    node set or the edge set bumps it, so a holder of derived
    state (a session's routing engine) can tell whether the graph moved
    since it last looked.
    """

    def __init__(self) -> None:
        self._adj: Dict[N, Dict[N, float]] = {}
        self._edge_count = 0
        self.version = 0

    # -- construction -----------------------------------------------------

    def add_node(self, node: N) -> None:
        """Add ``node`` if not already present (idempotent)."""
        if node not in self._adj:
            self._adj[node] = {}
            self.version += 1

    def add_edge(self, u: N, v: N, weight: float) -> None:
        """Add an undirected edge; endpoints are created as needed.

        Raises:
            ValueError: for self-loops, negative or non-numeric weights.
            EdgeExistsError: when the edge already exists (remove it
                first to change its weight).
        """
        if u == v:
            raise ValueError(f"self-loop on {u!r} not allowed")
        weight = float(weight)
        if weight < 0 or weight != weight:  # NaN check
            raise ValueError(f"edge weight must be >= 0, got {weight!r}")
        self.add_node(u)
        self.add_node(v)
        if v in self._adj[u]:
            raise EdgeExistsError(f"edge ({u!r}, {v!r}) already exists")
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        self._edge_count += 1
        self.version += 1

    def remove_edge(self, u: N, v: N) -> None:
        """Remove the edge between ``u`` and ``v``.

        Raises:
            KeyError: if the edge does not exist.
        """
        if u not in self._adj or v not in self._adj[u]:
            raise KeyError(f"edge ({u!r}, {v!r}) does not exist")
        del self._adj[u][v]
        del self._adj[v][u]
        self._edge_count -= 1
        self.version += 1

    # -- queries -----------------------------------------------------------

    def __contains__(self, node: N) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return self._edge_count

    def nodes(self) -> Iterator[N]:
        """Iterate nodes in insertion order."""
        return iter(self._adj)

    def has_edge(self, u: N, v: N) -> bool:
        """True when an edge between ``u`` and ``v`` exists."""
        return u in self._adj and v in self._adj[u]

    def weight(self, u: N, v: N) -> float:
        """Weight of the edge ``(u, v)``.

        Raises:
            KeyError: if the edge does not exist.
        """
        if u not in self._adj or v not in self._adj[u]:
            raise KeyError(f"edge ({u!r}, {v!r}) does not exist")
        return self._adj[u][v]

    def neighbors(self, node: N) -> Mapping[N, float]:
        """Read-only view of ``node``'s neighbours and edge weights.

        Raises:
            NodeNotFoundError: if the node is absent.
        """
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return dict(self._adj[node])

    def degree(self, node: N) -> int:
        """Number of edges incident to ``node``."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return len(self._adj[node])

    def path_weight(self, path: List[N]) -> float:
        """Total weight of a node path.

        Raises:
            KeyError: if any consecutive pair is not an edge.
        """
        total = 0.0
        for u, v in zip(path, path[1:]):
            total += self.weight(u, v)
        return total

    # -- copies ------------------------------------------------------------

    def copy(self) -> "Graph[N]":
        """Return an independent copy (nodes are shared, topology is not)."""
        clone: Graph[N] = Graph()
        clone._adj = {node: dict(neighbors) for node, neighbors in self._adj.items()}
        clone._edge_count = self._edge_count
        return clone

    def __repr__(self) -> str:
        return f"Graph(nodes={self.node_count}, edges={self.edge_count})"
