"""Connectivity analysis.

Topology builders must emit connected networks (a disconnected ISP map
would make all-pairs bit-risk miles undefined), so they never prune a
bridge: a link whose removal disconnects its endpoints.
:func:`connected_components` is the reference the tests hold Dijkstra
reachability against.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Set, TypeVar

from .core import Graph

__all__ = [
    "connected_components",
    "bridges",
]

N = TypeVar("N", bound=Hashable)


def connected_components(graph: Graph[N]) -> List[List[N]]:
    """Return the connected components, each in insertion order.

    Components are ordered by their first-inserted node, so output is
    deterministic.
    """
    seen: Set[N] = set()
    components: List[List[N]] = []
    for start in graph.nodes():
        if start in seen:
            continue
        component: List[N] = []
        stack = [start]
        seen.add(start)
        while stack:
            node = stack.pop()
            component.append(node)
            for neighbor in graph.neighbors(node):
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        # Keep insertion order within the component for determinism.
        order = {n: i for i, n in enumerate(graph.nodes())}
        component.sort(key=lambda n: order[n])
        components.append(component)
    return components


def bridges(graph: Graph[N]) -> List[tuple]:
    """Edges whose removal disconnects their endpoints.

    Returned as ``(u, v)`` tuples in deterministic order.
    """
    visited: Set[N] = set()
    disc: Dict[N, int] = {}
    low: Dict[N, int] = {}
    parent: Dict[N, N] = {}
    result: List[tuple] = []
    timer = 0

    for root in graph.nodes():
        if root in visited:
            continue
        stack = [(root, iter(graph.neighbors(root)))]
        visited.add(root)
        disc[root] = low[root] = timer
        timer += 1

        while stack:
            node, neighbors = stack[-1]
            advanced = False
            for neighbor in neighbors:
                if neighbor not in visited:
                    visited.add(neighbor)
                    disc[neighbor] = low[neighbor] = timer
                    timer += 1
                    parent[neighbor] = node
                    stack.append((neighbor, iter(graph.neighbors(neighbor))))
                    advanced = True
                    break
                elif neighbor != parent.get(node):
                    low[node] = min(low[node], disc[neighbor])
            if not advanced:
                stack.pop()
                if stack:
                    above = stack[-1][0]
                    low[above] = min(low[above], low[node])
                    if low[node] > disc[above]:
                        result.append((above, node))
    return result
