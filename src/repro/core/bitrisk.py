"""The bit-risk-miles metric (Definition 1, Equation 1).

For a route ``p = {p_1 .. p_K}`` between PoPs ``i = p_1`` and ``j = p_K``:

    r_ij(p) = sum_{x=2..K} [ d(p_x, p_{x-1})
                             + alpha_ij * (gamma_h o_h(p_x) + gamma_f o_f(p_x)) ]

i.e. mileage on every hop plus impact-scaled risk charged at every
traversed PoP except the source.  This module evaluates the metric and
its (distance, risk) decomposition for explicit paths; route *search* is
in :mod:`repro.core.riskroute`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..graph.core import Graph
from ..risk.model import RiskModel

__all__ = ["PathMetrics", "path_metrics"]


@dataclass(frozen=True)
class PathMetrics:
    """The decomposed cost of one route.

    ``risk_sum`` is the alpha-free risk total
    ``sum_{x>=2} (gamma_h o_h + gamma_f o_f)``; the full metric is
    ``distance_miles + alpha * risk_sum``, which lets callers re-evaluate
    the same path under a different pair impact without re-walking it.
    """

    path: tuple
    distance_miles: float
    risk_sum: float
    alpha: float

    @property
    def bit_risk_miles(self) -> float:
        """Equation 1 for this path."""
        return self.distance_miles + self.alpha * self.risk_sum


def path_metrics(
    graph: Graph[str], path: Sequence[str], model: RiskModel
) -> PathMetrics:
    """Evaluate a route's metric components.

    Args:
        graph: the distance-weighted topology graph.
        path: the node path (must follow existing edges).
        model: the risk model; the pair impact is taken from the path's
            endpoints per Equation 1.

    Raises:
        ValueError: for an empty path.
        KeyError: when a consecutive pair is not an edge, or a PoP is
            unknown to the model.
    """
    if not path:
        raise ValueError("path must contain at least one PoP")
    alpha = model.impact(path[0], path[-1])
    distance = 0.0
    risk = 0.0
    for prev, curr in zip(path, path[1:]):
        distance += graph.weight(prev, curr)
        risk += model.node_risk(curr)
    return PathMetrics(tuple(path), distance, risk, alpha)
