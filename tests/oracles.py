"""References the engine is tested against.

:func:`risk_dijkstra` is the seed's dict-based risk-weighted Dijkstra
(Equation 3's relaxation, ``d_uv + alpha * node_risk(v)``).  The
library has no copy of it: every production search is
:func:`repro.engine.sweep.csr_sweep` or
:func:`repro.engine.sweep.csr_sweep_batch`.

:func:`reference_aggregates` is the scalar form of the engine's
Equation 5-6 aggregates: explicit
:class:`~repro.core.riskroute.PairRoutes`, one per counted pair.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.ratios import RatioResult, ratios_over_pairs
from repro.core.riskroute import PairRoutes
from repro.core.strategy import SweepStrategy
from repro.graph.core import Graph, NodeNotFoundError
from repro.graph.shortest_path import NoPathError

__all__ = ["reference_aggregates", "risk_dijkstra"]


def reference_aggregates(
    engine,
    sources: Sequence[str],
    targets: Sequence[str],
    strategy: SweepStrategy,
) -> Optional[RatioResult]:
    """The ratios over explicit per-pair routes.

    Sources as given, targets in node order, unreachable targets
    skipped: the pair order the engine's aggregates sum in.  The
    shortest route comes from ``shortest_path``; the RiskRoute from
    ``risk_route`` under ``EXACT`` and from ``risk_routes_from`` under
    ``PER_SOURCE``.  ``None`` when no pair counts.
    """
    wanted = set(targets)
    pairs: List[PairRoutes] = []
    for source in sources:
        if strategy is SweepStrategy.PER_SOURCE:
            risky = engine.risk_routes_from(source, strategy)
        for target in engine.node_ids:
            if target == source or target not in wanted:
                continue
            try:
                if strategy is SweepStrategy.PER_SOURCE:
                    riskroute = risky[target]
                else:
                    riskroute = engine.risk_route(source, target)
            except (KeyError, NoPathError):
                continue
            pairs.append(
                PairRoutes(
                    shortest=engine.shortest_path(source, target),
                    riskroute=riskroute,
                )
            )
    return ratios_over_pairs(pairs) if pairs else None


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
