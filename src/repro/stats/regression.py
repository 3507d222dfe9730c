"""Simple linear regression and the coefficient of determination.

Table 3 of the paper reports the R^2 of a linear fit between each regional
network characteristic (footprint, #PoPs, ...) and the observed risk
reduction / distance increase ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["LinearFit", "linear_regression", "r_squared"]


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line ``y = slope * x + intercept`` plus its R^2."""

    slope: float
    intercept: float
    r_squared: float


def _spread(values: np.ndarray, deviations: np.ndarray) -> float:
    """Largest absolute deviation from the mean; 0.0 for rounding noise.

    The computed mean of n values is itself rounded, by up to about n
    ulps of the data's magnitude, so constant data can show deviations
    of that size (``[0.045] * 3`` deviates by about 7e-18).  Deviations
    within that tolerance are treated as no spread at all.
    """
    spread = float(np.max(np.abs(deviations)))
    tolerance = (
        values.size * np.finfo(np.float64).eps * float(np.max(np.abs(values)))
    )
    return spread if spread > tolerance else 0.0


def linear_regression(
    x: Sequence[float], y: Sequence[float]
) -> LinearFit:
    """Ordinary least squares fit of y on x.

    Raises:
        ValueError: on length mismatch or fewer than two points.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    y_arr = np.asarray(y, dtype=np.float64)
    if x_arr.shape != y_arr.shape:
        raise ValueError("x and y must have the same length")
    if x_arr.size < 2:
        raise ValueError("need at least two points to fit a line")
    x_mean = x_arr.mean()
    y_mean = y_arr.mean()
    # Work on deviations rescaled to O(1): raw sums of squares underflow
    # for deviations below ~1e-154 (their squares are subnormal), which
    # would silently report a vertical stack for genuinely sloped data.
    dx = x_arr - x_mean
    dy = y_arr - y_mean
    x_scale = _spread(x_arr, dx)
    if x_scale == 0.0:
        # Vertical stack of points: the best horizontal line is y = mean.
        return LinearFit(slope=0.0, intercept=float(y_mean), r_squared=0.0)
    y_scale = _spread(y_arr, dy)
    if y_scale == 0.0:
        # Constant observations: slope 0, and r_squared keeps its
        # degenerate-case convention (no variance to explain -> 0.0).
        return LinearFit(slope=0.0, intercept=float(y_mean), r_squared=0.0)
    ux = dx / x_scale
    uy = dy / y_scale
    slope = (y_scale / x_scale) * float(np.sum(ux * uy) / np.sum(ux * ux))
    if not math.isfinite(slope):
        # An x spread near the subnormal floor under a normal y spread
        # (x [0, 5e-324, 0]): the slope overflows, so the points are a
        # vertical stack as far as float64 can tell.
        return LinearFit(slope=0.0, intercept=float(y_mean), r_squared=0.0)
    intercept = float(y_mean - slope * x_mean)
    predictions = slope * x_arr + intercept
    return LinearFit(
        slope=float(slope),
        intercept=intercept,
        r_squared=r_squared(y_arr, predictions),
    )


def r_squared(observed: Sequence[float], predicted: Sequence[float]) -> float:
    """Coefficient of determination of predictions against observations.

    Returns 1.0 for a perfect fit; 0.0 when the predictions explain no
    variance (including the degenerate constant-observation case).
    """
    obs = np.asarray(observed, dtype=np.float64)
    pred = np.asarray(predicted, dtype=np.float64)
    if obs.shape != pred.shape:
        raise ValueError("observed and predicted must have the same length")
    if obs.size == 0:
        raise ValueError("need at least one observation")
    deviations = obs - obs.mean()
    spread = _spread(obs, deviations)
    if spread == 0.0:
        return 0.0
    # Rescaled to O(1) like linear_regression: squares of deviations
    # below ~1e-154 would underflow to a zero total.
    ss_tot = float(np.sum((deviations / spread) ** 2))
    with np.errstate(over="ignore"):  # an infinite residual is R^2 = 0
        ss_res = float(np.sum(((obs - pred) / spread) ** 2))
    return max(0.0, 1.0 - ss_res / ss_tot)
