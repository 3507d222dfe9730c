"""Seeded geographic samplers used by the synthetic data generators.

Every synthetic dataset in this reproduction (disaster catalogs, census
blocks, storm tracks) is produced by a seeded ``numpy.random.Generator``
flowing through these helpers, so the full corpus is bit-identical across
runs and platforms.

The samplers return ``(lat, lon)`` degree columns.  They draw in bulk
but consume the generator exactly as a per-point loop does: one
``normal`` draw for the latitude, then one for the longitude, per
attempt, in stream order (see :func:`sample_gaussian_cluster`).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..geo.coords import BoundingBox, GeoPoint

__all__ = [
    "sample_gaussian_cluster",
    "sample_mixture",
]

#: Degrees of latitude per statute mile (1 degree latitude ~ 69.05 miles).
_DEGREES_PER_MILE_LAT = 1.0 / 69.05

#: Rejected attempts after which a point is clipped into the box.
_MAX_ATTEMPTS = 100

Columns = Tuple["np.ndarray", "np.ndarray"]


def sample_gaussian_cluster(
    rng: "np.random.Generator",
    center: GeoPoint,
    spread_miles: float,
    count: int,
    clamp: BoundingBox = None,
) -> Columns:
    """Sample ``(lat, lon)`` columns from an isotropic Gaussian around
    ``center``.

    ``spread_miles`` is the standard deviation of the cluster in miles;
    longitudes are corrected for the cos(latitude) compression so the
    cluster is circular on the ground.  Each attempt draws a latitude
    and then a longitude, clipped to +-89.9 / +-179.9.  Points falling
    outside ``clamp`` (when given) are re-drawn by rejection, capped at
    100 attempts each, after which the 100th candidate is clipped to the
    box edge.

    The draws are made in rounds of one ``(m, 2)`` normal draw, where
    ``m`` is the number of points still missing.  Every point consumes
    at least one attempt, so a round never draws an attempt the
    point-by-point loop would not: the accepted and capped attempts, in
    stream order, are the points, and the generator ends in the same
    state.
    """
    if spread_miles <= 0:
        raise ValueError("spread_miles must be positive")
    if count < 0:
        raise ValueError("count must be non-negative")
    sigma_lat = spread_miles * _DEGREES_PER_MILE_LAT
    cos_lat = max(0.05, np.cos(np.radians(center.lat)))
    loc = (center.lat, center.lon)
    scale = (sigma_lat, sigma_lat / cos_lat)
    lat_parts, lon_parts = [], []
    missing = count
    carry = 0  # rejections the point in progress has already used
    while missing:
        draws = rng.normal(loc, scale, size=(missing, 2))
        lat = np.clip(draws[:, 0], -89.9, 89.9)
        lon = np.clip(draws[:, 1], -179.9, 179.9)
        if clamp is None:
            lat_parts.append(lat)
            lon_parts.append(lon)
            break
        accepted = (
            (clamp.south <= lat) & (lat <= clamp.north)
            & (clamp.west <= lon) & (lon <= clamp.east)
        )
        # Length of the rejection run ending at each attempt (0 where
        # accepted); the run started before this round carries over.
        index = np.arange(missing)
        last_accepted = np.maximum.accumulate(np.where(accepted, index, -1))
        run = index - last_accepted
        run[last_accepted < 0] += carry
        capped = (run % _MAX_ATTEMPTS == 0) & ~accepted
        carry = int(run[-1] % _MAX_ATTEMPTS)
        lat = np.where(capped, np.clip(lat, clamp.south, clamp.north), lat)
        lon = np.where(capped, np.clip(lon, clamp.west, clamp.east), lon)
        points = accepted | capped
        lat_parts.append(lat[points])
        lon_parts.append(lon[points])
        missing -= int(np.count_nonzero(points))
    if not lat_parts:
        return np.zeros(0), np.zeros(0)
    return np.concatenate(lat_parts), np.concatenate(lon_parts)


def sample_mixture(
    rng: "np.random.Generator",
    components: Sequence[Tuple[GeoPoint, float, float]],
    count: int,
    clamp: BoundingBox = None,
) -> Columns:
    """Sample ``(lat, lon)`` columns from a mixture of Gaussian clusters.

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
    clusters = [
        sample_gaussian_cluster(rng, center, spread, int(n), clamp=clamp)
        for (center, spread, _), n in zip(components, allocation)
    ]
    return (
        np.concatenate([lat for lat, _ in clusters]),
        np.concatenate([lon for _, lon in clusters]),
    )
