"""Seeded geographic samplers used by the synthetic data generators.

Every synthetic dataset in this reproduction (disaster catalogs, census
blocks, storm tracks) is produced by a seeded ``numpy.random.Generator``
flowing through these helpers, so the full corpus is bit-identical across
runs and platforms.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..geo.coords import BoundingBox, GeoPoint

__all__ = [
    "sample_gaussian_cluster",
    "sample_mixture",
]

#: Degrees of latitude per statute mile (1 degree latitude ~ 69.05 miles).
_DEGREES_PER_MILE_LAT = 1.0 / 69.05


def sample_gaussian_cluster(
    rng: "np.random.Generator",
    center: GeoPoint,
    spread_miles: float,
    count: int,
    clamp: BoundingBox = None,
) -> List[GeoPoint]:
    """Sample points from an isotropic Gaussian around ``center``.

    ``spread_miles`` is the standard deviation of the cluster in miles;
    longitudes are corrected for the cos(latitude) compression so the
    cluster is circular on the ground.  Points falling outside ``clamp``
    (when given) are re-drawn by rejection, capped at 100 attempts each,
    after which they are clipped to the box edge.
    """
    if spread_miles <= 0:
        raise ValueError("spread_miles must be positive")
    if count < 0:
        raise ValueError("count must be non-negative")
    sigma_lat = spread_miles * _DEGREES_PER_MILE_LAT
    cos_lat = max(0.05, np.cos(np.radians(center.lat)))
    sigma_lon = sigma_lat / cos_lat
    points: List[GeoPoint] = []
    for _ in range(count):
        for _attempt in range(100):
            lat = float(rng.normal(center.lat, sigma_lat))
            lon = float(rng.normal(center.lon, sigma_lon))
            lat = min(89.9, max(-89.9, lat))
            lon = min(179.9, max(-179.9, lon))
            candidate = GeoPoint(lat, lon)
            if clamp is None or clamp.contains(candidate):
                points.append(candidate)
                break
        else:
            points.append(
                GeoPoint(
                    min(clamp.north, max(clamp.south, lat)),
                    min(clamp.east, max(clamp.west, lon)),
                )
            )
    return points


def sample_mixture(
    rng: "np.random.Generator",
    components: Sequence[Tuple[GeoPoint, float, float]],
    count: int,
    clamp: BoundingBox = None,
) -> List[GeoPoint]:
    """Sample from a mixture of Gaussian clusters.

    Args:
        rng: seeded generator.
        components: ``(center, spread_miles, weight)`` triples; weights
            need not be normalised.
        count: total points to draw.
        clamp: optional bounding box to confine samples.

    Returns:
        ``count`` points, drawn cluster-by-cluster with a multinomial
        split of the total so the output is deterministic given the seed.
    """
    if not components:
        raise ValueError("need at least one mixture component")
    weights = np.array([w for _, _, w in components], dtype=np.float64)
    if (weights <= 0).any():
        raise ValueError("component weights must be positive")
    weights = weights / weights.sum()
    allocation = rng.multinomial(count, weights)
    points: List[GeoPoint] = []
    for (center, spread, _), n in zip(components, allocation):
        points.extend(
            sample_gaussian_cluster(rng, center, spread, int(n), clamp=clamp)
        )
    return points
