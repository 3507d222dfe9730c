"""RiskRoute route results (Equation 3) and their Equation 5/6 terms.

Finding the minimum-bit-risk-miles route between PoPs ``i`` and ``j``
reduces to a shortest-path search where relaxing an edge ``(u, v)``
toward ``v`` costs ``d_uv + alpha_ij * node_risk(v)`` — the risk of a PoP
is charged on *entering* it, so the source is free and the target is
charged, exactly as Equation 1 sums over ``x = 2..K``.  The searches run
in :class:`~repro.engine.engine.RoutingEngine`, reached through
:class:`~repro.session.RoutingSession`; this module holds what they
return.

Because ``alpha_ij = c_i + c_j`` depends on both endpoints, the exact
optimum needs one search per pair.  For all-targets sweeps the engine
also offers a *per-source approximation*: a single search from ``i``
using the expected impact ``alpha_i = c_i + mean(c)``, whose paths are
then re-scored exactly under each target's true ``alpha_ij``.  The
approximation picks each path from a slightly perturbed objective but
never mis-reports a cost; Section "Optimization and Computational
Complexity" (6.4) of the paper glosses over this pair coupling entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitrisk import PathMetrics

__all__ = ["RouteResult", "PairRoutes"]


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
