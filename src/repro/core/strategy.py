"""Sweep strategy selection for RiskRoute searches.

Two ways to answer "all RiskRoute paths from ``i``":

* ``EXACT`` — one search per pair under the true impact
  ``alpha_ij = c_i + c_j`` (the literal Equation 3 optimum).
* ``PER_SOURCE`` — a single search from ``i`` under the expected impact
  ``alpha_i = c_i + mean(c)``, with every chosen path re-scored exactly
  under its pair's true ``alpha_ij``.
"""

from __future__ import annotations

import enum
from typing import Union

__all__ = [
    "SweepStrategy",
    "resolve_strategy",
    "auto_strategy",
    "EXACT_PAIR_LIMIT",
]

#: Above this PoP count auto strategy selection switches from ``EXACT``
#: to ``PER_SOURCE``.
EXACT_PAIR_LIMIT = 60


class SweepStrategy(str, enum.Enum):
    """How all-targets RiskRoute sweeps pick their search impact."""

    EXACT = "exact"
    PER_SOURCE = "per-source"


StrategyLike = Union[SweepStrategy, str, None]


def resolve_strategy(
    strategy: StrategyLike = None,
    default: SweepStrategy = SweepStrategy.EXACT,
) -> SweepStrategy:
    """Normalise a strategy argument to a :class:`SweepStrategy`.

    Accepts the enum, its string values and ``None`` (→ ``default``).

    Raises:
        ValueError: for anything else, including the boolean ``exact``
            flag this argument replaced.
    """
    if strategy is None:
        return default
    if isinstance(strategy, SweepStrategy):
        return strategy
    try:
        return SweepStrategy(strategy)
    except ValueError:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected 'exact' or 'per-source'"
        ) from None


def auto_strategy(node_count: int) -> SweepStrategy:
    """The size-based default: ``EXACT`` up to ``EXACT_PAIR_LIMIT``
    nodes, ``PER_SOURCE`` above."""
    if node_count <= EXACT_PAIR_LIMIT:
        return SweepStrategy.EXACT
    return SweepStrategy.PER_SOURCE
