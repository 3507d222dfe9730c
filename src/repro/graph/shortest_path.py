"""Shortest-path search.

The RiskRoute optimizer is a single-pair shortest path on the risk-weighted
graph (Section 6.4 of the paper); the evaluation ratios (Equations 5-6)
need all-pairs results, and the provisioning search (Equation 4) runs the
all-pairs computation once per candidate edge.

Every search here is the routing engine's one heapq loop
(:func:`repro.engine.sweep.csr_sweep` at ``alpha == 0`` with zero risk)
over the graph flattened into CSR arrays: a single-source Dijkstra and
an all-pairs search that flattens the graph once.  Returned dicts list
nodes in graph order.

A deterministic tie-break keeps equal-cost paths stable across runs: among
equally cheap frontier entries the one inserted first wins.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple, TypeVar

from .core import Graph, NodeNotFoundError

__all__ = [
    "NoPathError",
    "dijkstra",
    "all_pairs_shortest_paths",
    "reconstruct_path",
]

N = TypeVar("N", bound=Hashable)


class NoPathError(Exception):
    """Raised when no path exists between the requested endpoints."""

    def __init__(self, source, target) -> None:
        super().__init__(f"no path from {source!r} to {target!r}")
        self.source = source
        self.target = target


def _sweep(csr, source: int):
    """The alpha-0, zero-risk engine sweep over flattened arrays."""
    from ..engine.sweep import csr_sweep

    zero_risk = [0.0] * len(csr.indices_list)
    return csr_sweep(
        csr.indptr_list, csr.indices_list, csr.weights_list, zero_risk,
        source, 0.0,
    )


def _as_dicts(csr, sweep) -> Tuple[Dict, Dict]:
    """A sweep's ``(dist, parent)`` keyed by node, in node order."""
    ids = csr.node_ids
    dist: Dict = {}
    parent: Dict = {}
    for v, d in enumerate(sweep.dist):
        if d == float("inf"):
            continue
        dist[ids[v]] = d
        p = sweep.parent[v]
        if p >= 0:
            parent[ids[v]] = ids[p]
    return dist, parent


def dijkstra(graph: Graph[N], source: N) -> Tuple[Dict[N, float], Dict[N, N]]:
    """Single-source Dijkstra.

    Args:
        graph: the weighted graph (non-negative weights enforced by
            :class:`~repro.graph.core.Graph`).
        source: start node.

    Returns:
        ``(dist, parent)`` where ``dist`` maps each reached node to its
        distance from ``source`` and ``parent`` maps each reached node
        (except the source) to its predecessor on a shortest path; both
        list nodes in graph order.

    Raises:
        NodeNotFoundError: if ``source`` is absent.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    # Lazy import: the engine layer imports this module.
    from ..engine.arrays import CsrGraph

    csr = CsrGraph(graph)
    return _as_dicts(csr, _sweep(csr, csr.index[source]))


def reconstruct_path(parent: Dict[N, N], source: N, target: N) -> List[N]:
    """Rebuild the node path source→target from a Dijkstra parent map.

    Raises:
        NoPathError: if ``target`` was never reached.
    """
    if target == source:
        return [source]
    if target not in parent:
        raise NoPathError(source, target)
    path = [target]
    node = target
    while node != source:
        node = parent[node]
        path.append(node)
    path.reverse()
    return path


def all_pairs_shortest_paths(
    graph: Graph[N],
) -> Dict[N, Tuple[Dict[N, float], Dict[N, N]]]:
    """Run single-source Dijkstra from every node.

    Returns a map ``source -> (dist, parent)``.  The framework's ratio
    computations (Equations 5-6) consume this directly.  The graph is
    flattened once and every source swept over the same arrays.
    """
    from ..engine.arrays import CsrGraph

    csr = CsrGraph(graph)
    return {
        name: _as_dicts(csr, _sweep(csr, s))
        for s, name in enumerate(csr.node_ids)
    }
