"""The RiskRoute optimizer (Equation 3).

Finding the minimum-bit-risk-miles route between PoPs ``i`` and ``j``
reduces to a shortest-path search where relaxing an edge ``(u, v)``
toward ``v`` costs ``d_uv + alpha_ij * node_risk(v)`` — the risk of a PoP
is charged on *entering* it, so the source is free and the target is
charged, exactly as Equation 1 sums over ``x = 2..K``.

Because ``alpha_ij = c_i + c_j`` depends on both endpoints, the exact
optimum needs one search per pair.  For all-targets sweeps the module
also offers a *per-source approximation*: a single search from ``i``
using the expected impact ``alpha_i = c_i + mean(c)``, whose paths are
then re-scored exactly under each target's true ``alpha_ij``.  The
approximation picks each path from a slightly perturbed objective but
never mis-reports a cost; Section "Optimization and Computational
Complexity" (6.4) of the paper glosses over this pair coupling entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..graph.core import Graph
from ..risk.model import RiskModel
from .bitrisk import PathMetrics
from .strategy import SweepStrategy, resolve_strategy

__all__ = ["RouteResult", "PairRoutes", "RiskRouter", "SweepStrategy"]


@dataclass(frozen=True)
class RouteResult:
    """One computed route with its metric decomposition."""

    source: str
    target: str
    metrics: PathMetrics

    @property
    def path(self) -> tuple:
        """The node path."""
        return self.metrics.path

    @property
    def bit_miles(self) -> float:
        """Pure mileage."""
        return self.metrics.distance_miles

    @property
    def bit_risk_miles(self) -> float:
        """Equation 1 cost."""
        return self.metrics.bit_risk_miles


@dataclass(frozen=True)
class PairRoutes:
    """Shortest-path and RiskRoute results for one PoP pair."""

    shortest: RouteResult
    riskroute: RouteResult

    @property
    def risk_ratio(self) -> float:
        """``r(p_rr) / r(p_shortest)`` — the per-pair term of Equation 5.

        A pair whose shortest path costs 0 bit-risk miles counts as
        1.0; :func:`repro.core.ratios._ratio_terms` applies the same
        rule to whole arrays.
        """
        denominator = self.shortest.bit_risk_miles
        if denominator == 0.0:
            return 1.0
        return self.riskroute.bit_risk_miles / denominator

    @property
    def distance_ratio(self) -> float:
        """``d(p_rr) / d(p_shortest)`` — the per-pair term of Equation 6.

        A pair whose shortest path is 0 miles long counts as 1.0;
        :func:`repro.core.ratios._ratio_terms` applies the same rule to
        whole arrays.
        """
        denominator = self.shortest.bit_miles
        if denominator == 0.0:
            return 1.0
        return self.riskroute.bit_miles / denominator


class RiskRouter:
    """Routes one distance graph under one risk model.

    Historically this class ran a cold Dijkstra per query; it is now a
    thin wrapper over :class:`repro.session.RoutingSession` (and through
    it the session's cached :class:`~repro.engine.engine.RoutingEngine`),
    kept for API compatibility.  New code should construct a
    ``RoutingSession`` directly.
    """

    def __init__(self, graph: Graph[str], model: RiskModel) -> None:
        from ..session import RoutingSession

        self.graph = graph
        self.model = model
        # Session construction fails fast on a model/topology mismatch,
        # preserving the historical constructor contract.
        self._session = RoutingSession(graph, model)

    @property
    def session(self) -> "RoutingSession":
        """The facade this router delegates to."""
        return self._session

    @property
    def engine(self):
        """The routing engine of this router's session."""
        return self._session.engine

    # -- single-pair routing --------------------------------------------------

    def shortest_path(self, source: str, target: str) -> RouteResult:
        """Pure geographic shortest path (the paper's baseline).

        Raises:
            NoPathError: when disconnected.
        """
        return self._session.shortest(source, target)

    def risk_route(self, source: str, target: str) -> RouteResult:
        """The exact Equation 3 optimum for one pair.

        Raises:
            NoPathError: when disconnected.
        """
        return self._session.route(source, target)

    def route_pair(self, source: str, target: str) -> PairRoutes:
        """Both routes for a pair, ready for ratio evaluation."""
        return self._session.pair(source, target)

    # -- per-source sweeps ------------------------------------------------------

    def shortest_from(self, source: str) -> Dict[str, RouteResult]:
        """Shortest paths from ``source`` to every reachable PoP."""
        return self._session.shortest_from(source)

    def approx_risk_routes_from(self, source: str) -> Dict[str, RouteResult]:
        """Near-optimal RiskRoute paths from ``source`` to all targets.

        One search under the expected impact ``alpha_i = c_i + mean(c)``;
        each returned route is re-scored exactly under its true pair
        impact, so reported costs are exact for the paths chosen.
        """
        return self._session.routes_from(source, SweepStrategy.PER_SOURCE)

    def risk_routes_from(
        self, source: str, strategy=None
    ) -> Dict[str, RouteResult]:
        """RiskRoute paths from ``source`` to every reachable PoP.

        Args:
            source: the source PoP.
            strategy: ``"exact"`` (default — one search per target, the
                true Equation 3) or ``"per-source"`` (single-search
                approximation, re-scored exactly).
        """
        return self._session.routes_from(source, resolve_strategy(strategy))
