"""Reference searches the engine is tested against.

:func:`risk_dijkstra` is the seed's dict-based risk-weighted Dijkstra
(Equation 3's relaxation, ``d_uv + alpha * node_risk(v)``).  The
library has no copy of it: every production search is
:func:`repro.engine.sweep.csr_sweep` or
:func:`repro.engine.sweep.csr_sweep_batch`.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Optional, Tuple

from repro.graph.core import Graph, NodeNotFoundError

__all__ = ["risk_dijkstra"]


def risk_dijkstra(
    graph: Graph[str],
    node_risk: Mapping[str, float],
    alpha: float,
    source: str,
    target: Optional[str] = None,
) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Dijkstra with per-node entry costs scaled by ``alpha``.

    The seed's dict-based search, kept verbatim as the oracle the
    engine's :func:`~repro.engine.sweep.csr_sweep` must match: same
    distances and parents, bit for bit.  ``dist`` lists nodes in the
    order the search first touched them.

    Raises:
        NodeNotFoundError: for an unknown endpoint, or when the search
            enters a node the risk mapping does not cover.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    if target is not None and target not in graph:
        raise NodeNotFoundError(target)
    dist: Dict[str, float] = {source: 0.0}
    parent: Dict[str, str] = {}
    settled: set = set()
    counter = 0
    heap: List[Tuple[float, int, str]] = [(0.0, counter, source)]
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            break
        for neighbor, weight in graph.neighbors(node).items():
            if neighbor in settled:
                continue
            try:
                risk = node_risk[neighbor]
            except KeyError:
                raise NodeNotFoundError(
                    f"no risk defined for PoP {neighbor!r}; the risk model "
                    "does not cover the topology"
                ) from None
            candidate = d + weight + alpha * risk
            if candidate < dist.get(neighbor, float("inf")):
                dist[neighbor] = candidate
                parent[neighbor] = node
                counter += 1
                heapq.heappush(heap, (candidate, counter, neighbor))
    return dist, parent
