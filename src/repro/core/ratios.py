"""Evaluation ratios (Equations 5 and 6).

The paper reports all results relative to shortest-path routing over the
same topology:

* **risk reduction ratio** ``rr = 1 - mean_ij r(p_rr) / r(p_shortest)``
* **distance increase ratio** ``dr = mean_ij d(p_rr) / d(p_shortest) - 1``

Equation 5/6 write the mean as ``1/N^2`` over all ordered pairs; the
diagonal terms are degenerate (0/0), so we average over the ordered pairs
with ``i != j`` — with symmetric routing this equals the unordered-pair
mean the tables effectively report.

Zero-denominator rule: a pair whose shortest path costs 0 (bit-risk
miles for ``rr``, miles for ``dr``) counts as ratio 1.0.  Two places
apply it — the scalar :class:`~repro.core.riskroute.PairRoutes`
properties (which the demand-weighted ratios of
:mod:`repro.traffic.weighted` also use), and :func:`_ratio_terms`, the
vector form the engine's aggregates use — and both give the same bits
for every pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from .riskroute import PairRoutes

__all__ = ["RatioResult", "ratios_over_pairs"]


@dataclass(frozen=True)
class RatioResult:
    """Aggregated rr/dr over a pair population."""

    risk_reduction_ratio: float
    distance_increase_ratio: float
    pair_count: int

    def __post_init__(self) -> None:
        if self.pair_count < 0:
            raise ValueError("pair_count must be non-negative")


def _aggregate(
    risk_ratios: Sequence[float], distance_ratios: Sequence[float]
) -> RatioResult:
    if not risk_ratios:
        raise ValueError("no pairs to aggregate")
    mean_risk = sum(risk_ratios) / len(risk_ratios)
    mean_dist = sum(distance_ratios) / len(distance_ratios)
    return RatioResult(
        risk_reduction_ratio=1.0 - mean_risk,
        distance_increase_ratio=mean_dist - 1.0,
        pair_count=len(risk_ratios),
    )


def _ratio_terms(
    numerator: np.ndarray, denominator: np.ndarray
) -> List[float]:
    """Per-pair Equation 5/6 terms ``numerator / denominator``.

    The vector form of :attr:`PairRoutes.risk_ratio` and
    :attr:`PairRoutes.distance_ratio`: one IEEE division per pair, and a
    pair whose shortest path costs 0 (``denominator == 0``) counts as
    ratio 1.0.  Returned as Python floats, ready for the in-order sums
    of :func:`_aggregate`.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = numerator / denominator
    terms[denominator == 0.0] = 1.0
    return terms.tolist()


def ratios_over_pairs(pairs: Iterable[PairRoutes]) -> RatioResult:
    """Aggregate explicit pair results into rr/dr.

    Raises:
        ValueError: when the iterable is empty.
    """
    risk_ratios: List[float] = []
    distance_ratios: List[float] = []
    for pair in pairs:
        risk_ratios.append(pair.risk_ratio)
        distance_ratios.append(pair.distance_ratio)
    return _aggregate(risk_ratios, distance_ratios)
