"""Multi-objective routing: balancing SLAs and risk (Section 6.4).

The paper notes RiskRoute "could easily be expanded to include multiple
objective functions that would balance risk and SLA-related issues such
as latency", at the cost of extra route-computation complexity.  This
module pays that cost:

* a **latency model** converting route geometry to one-way delay
  (speed-of-light-in-fiber propagation plus a per-hop router budget),
* a **composite optimizer** minimising
  ``lambda * latency_penalty + (1 - lambda) * bit-risk-miles``, and
* an exact **bi-objective label-setting search** enumerating the full
  Pareto frontier of (mileage, risk) paths for a pair — every trade-off
  an operator could pick, not just one gamma's answer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..graph.core import Graph, NodeNotFoundError
from ..risk.model import RiskModel
from .bitrisk import path_metrics
from .riskroute import RouteResult
from ..graph.shortest_path import NoPathError

__all__ = [
    "LatencyModel",
    "ParetoPath",
    "pareto_paths",
    "composite_route",
]

#: Speed of light in fiber, statute miles per millisecond (~0.66 c).
_FIBER_MILES_PER_MS = 124.0

#: Per-hop forwarding/queueing budget in milliseconds.
_PER_HOP_MS = 0.25


@dataclass(frozen=True)
class LatencyModel:
    """Route latency from geometry: propagation + per-hop budget."""

    fiber_miles_per_ms: float = _FIBER_MILES_PER_MS
    per_hop_ms: float = _PER_HOP_MS

    def __post_init__(self) -> None:
        if self.fiber_miles_per_ms <= 0:
            raise ValueError("fiber_miles_per_ms must be positive")
        if self.per_hop_ms < 0:
            raise ValueError("per_hop_ms must be non-negative")

    def path_latency_ms(self, distance_miles: float, hops: int) -> float:
        """One-way latency of a route."""
        if distance_miles < 0 or hops < 0:
            raise ValueError("distance and hops must be non-negative")
        return distance_miles / self.fiber_miles_per_ms + hops * self.per_hop_ms

    def route_latency_ms(self, route: RouteResult) -> float:
        """Latency of a computed route."""
        return self.path_latency_ms(route.bit_miles, len(route.path) - 1)


@dataclass(frozen=True)
class ParetoPath:
    """One non-dominated (mileage, risk) route."""

    path: Tuple[str, ...]
    distance_miles: float
    risk_sum: float

    def bit_risk_miles(self, alpha: float) -> float:
        """Equation 1 under a given pair impact."""
        return self.distance_miles + alpha * self.risk_sum


def pareto_paths(
    graph: Graph[str],
    model: RiskModel,
    source: str,
    target: str,
    max_labels_per_node: int = 64,
) -> List[ParetoPath]:
    """Exact Pareto frontier of (mileage, risk-sum) paths for one pair.

    Bi-objective label-setting search: a label ``(distance, risk)`` at a
    node survives only if no other label there dominates it in both
    coordinates.  The frontier is returned sorted by increasing mileage
    (hence decreasing risk); its first entry is the geographic shortest
    path and its last the minimum-risk path.

    Args:
        max_labels_per_node: safety valve bounding frontier growth on
            dense graphs.

    Raises:
        NodeNotFoundError: for unknown endpoints.
        NoPathError: when disconnected.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    if target not in graph:
        raise NodeNotFoundError(target)
    node_risk = model.node_risks()

    # Labels: node -> list of non-dominated (distance, risk).
    labels: Dict[str, List[Tuple[float, float]]] = {source: [(0.0, 0.0)]}
    parents: Dict[Tuple[str, float, float], Tuple[str, float, float]] = {}
    counter = 0
    heap: List[Tuple[float, float, int, str]] = [(0.0, 0.0, counter, source)]

    def dominated(node: str, dist: float, risk: float) -> bool:
        # Weak dominance: an existing equal-or-better label (including an
        # identical duplicate) makes the new label redundant.
        for d, r in labels.get(node, ()):  # small lists
            if d <= dist + 1e-12 and r <= risk + 1e-12:
                return True
        return False

    while heap:
        dist, risk, _, node = heapq.heappop(heap)
        current = labels.get(node, [])
        if (dist, risk) not in current:
            continue  # label was pruned after being queued
        for neighbor, weight in graph.neighbors(node).items():
            new_dist = dist + weight
            new_risk = risk + node_risk[neighbor]
            if dominated(neighbor, new_dist, new_risk):
                continue
            bucket = labels.setdefault(neighbor, [])
            # Drop labels the new one dominates.
            bucket[:] = [
                (d, r)
                for d, r in bucket
                if not (new_dist <= d + 1e-12 and new_risk <= r + 1e-12)
            ]
            if len(bucket) >= max_labels_per_node:
                continue
            bucket.append((new_dist, new_risk))
            parents[(neighbor, new_dist, new_risk)] = (node, dist, risk)
            counter += 1
            heapq.heappush(heap, (new_dist, new_risk, counter, neighbor))

    frontier = sorted(labels.get(target, []))
    if not frontier:
        raise NoPathError(source, target)

    out: List[ParetoPath] = []
    for dist, risk in frontier:
        path = [target]
        key = (target, dist, risk)
        while key[0] != source or key[1:] != (0.0, 0.0):
            key = parents[key]
            path.append(key[0])
        path.reverse()
        out.append(
            ParetoPath(tuple(path), distance_miles=dist, risk_sum=risk)
        )
    return out


def composite_route(
    graph: Graph[str],
    model: RiskModel,
    source: str,
    target: str,
    sla_weight: float,
    latency: Optional[LatencyModel] = None,
    latency_scale_miles_per_ms: float = 124.0,
) -> RouteResult:
    """Minimise ``sla_weight * latency + (1 - sla_weight) * bit-risk``.

    The latency term is expressed in equivalent miles (scaled by
    ``latency_scale_miles_per_ms``) so the two objectives share a unit.
    ``sla_weight = 1`` reduces to latency-optimal routing, ``0`` to pure
    RiskRoute.

    Raises:
        ValueError: for a weight outside [0, 1].
        NodeNotFoundError: for unknown endpoints.
        NoPathError: when disconnected.
    """
    # Lazy import: the engine layer imports this package.
    from ..engine.arrays import CsrGraph
    from ..engine.sweep import csr_sweep

    if not 0.0 <= sla_weight <= 1.0:
        raise ValueError("sla_weight must be in [0, 1]")
    for node in (source, target):
        if node not in graph:
            raise NodeNotFoundError(node)
    latency = latency or LatencyModel()
    alpha = model.impact(source, target)
    # Composite edge relaxation: both objectives are additive per hop.
    #   latency(miles, hop)  -> miles / v + per_hop
    #   bit-risk(miles, hop) -> miles + alpha * node_risk(v)
    per_mile = (
        sla_weight * latency_scale_miles_per_ms / latency.fiber_miles_per_ms
        + (1.0 - sla_weight)
    )
    per_hop = sla_weight * latency.per_hop_ms * latency_scale_miles_per_ms

    composite: Graph[str] = Graph()
    for node in graph.nodes():
        composite.add_node(node)
    for u, v, weight in graph.edges():
        composite.add_edge(u, v, weight * per_mile + per_hop)
    csr = CsrGraph(composite)
    scaled_risk = [
        (1.0 - sla_weight) * model.node_risk(node) for node in csr.node_ids
    ]
    t = csr.index[target]
    sweep = csr_sweep(
        csr.indptr_list, csr.indices_list, csr.weights_list,
        csr.neighbor_values(scaled_risk), csr.index[source], alpha, target=t,
    )
    if sweep.dist[t] == float("inf"):
        raise NoPathError(source, target)
    path = [csr.node_ids[i] for i in sweep.path_to(t)]
    return RouteResult(source, target, path_metrics(graph, path, model))
