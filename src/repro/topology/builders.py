"""Deterministic topology construction.

The paper's topologies come from the Internet Topology Zoo and Internet
Atlas.  We rebuild an equivalent corpus synthetically: PoPs are placed at
gazetteer cities (several PoPs per metro when a network has more PoPs than
its footprint has cities, offset by a small deterministic jitter — real
ISPs also run multiple sites per metro), and links are placed line-of-sight
by proximity graph:

1. the **Gabriel graph** over the PoP locations gives a connected planar
   mesh whose parallel corridors and rings mirror real backbone maps
   (fiber follows the same geography), then
2. the mesh is trimmed toward a target average degree by removing the
   longest edges that are not bridges — shrinking cost while preserving
   the ring structure that gives routing its alternatives — or augmented
   with nearest-neighbour chords when the Gabriel mesh is too sparse.

Everything is a pure function of the inputs, so the corpus is identical
on every run.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geo.distance import destination_point, great_circle_miles
from ..graph.components import bridges
from .cities import ALL_CITIES, City, top_cities
from .network import Network, NetworkTier, PoP

__all__ = [
    "place_pops",
    "gabriel_pairs",
    "mesh_links",
    "build_network",
    "continental_network",
]

#: Jitter ring radii (miles) for 2nd, 3rd, ... PoP in the same metro.
_METRO_RING_MILES = (7.0, 12.0, 17.0, 23.0, 30.0)


def place_pops(network: Network, cities: Sequence[City], count: int) -> None:
    """Place ``count`` PoPs into ``network`` over the given cities.

    Cities are used round-robin in the given order.  The first PoP in a
    metro sits at the city centre; later PoPs in the same metro are
    offset onto deterministic rings (bearing spread by the golden angle),
    modelling multiple sites per metro.

    Raises:
        ValueError: if there are no cities or count is negative.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if count > 0 and not cities:
        raise ValueError("cannot place PoPs without candidate cities")
    per_city: Dict[str, int] = {}
    for index in range(count):
        city = cities[index % len(cities)]
        visit = per_city.get(city.key, 0)
        per_city[city.key] = visit + 1
        if visit == 0:
            location = city.location
        else:
            ring = _METRO_RING_MILES[(visit - 1) % len(_METRO_RING_MILES)]
            extra_lap = (visit - 1) // len(_METRO_RING_MILES)
            bearing = (visit * 137.5) % 360.0
            location = destination_point(
                city.location, bearing, ring + 35.0 * extra_lap
            )
        pop_id = f"{network.name}:{city.key}" + (f"#{visit}" if visit else "")
        network.add_pop(PoP(pop_id=pop_id, city=city.key, location=location))


def gabriel_pairs(
    lat: "np.ndarray", lon: "np.ndarray"
) -> List[Tuple[int, int]]:
    """Index pairs of the Gabriel graph over points.

    Edge (i, j) belongs to the Gabriel graph iff no third point lies
    inside the disc whose diameter is the segment ij.  Computed in a
    local equirectangular projection (fine at continental scale for a
    *topology* decision; link lengths are always true great-circle).
    """
    n = lat.shape[0]
    if n < 2:
        return []
    mean_lat = float(np.mean(lat))
    x = lon * math.cos(math.radians(mean_lat))
    y = lat.astype(np.float64)
    pts = np.column_stack([x, y])

    pairs: List[Tuple[int, int]] = []
    eps = 1e-12
    for i in range(n - 1):
        mid = (pts[i + 1 :] + pts[i]) / 2.0                    # (m, 2)
        radius_sq = np.sum((pts[i + 1 :] - pts[i]) ** 2, axis=1) / 4.0
        # Distance of every point to every midpoint: (n, m).
        diff = pts[:, None, :] - mid[None, :, :]
        dist_sq = np.sum(diff**2, axis=2)
        # Exclude the two endpoints of each candidate edge.
        dist_sq[i, :] = np.inf
        dist_sq[np.arange(i + 1, n), np.arange(n - i - 1)] = np.inf
        blocked = (dist_sq < radius_sq[None, :] - eps).any(axis=0)
        for offset in np.nonzero(~blocked)[0]:
            pairs.append((i, i + 1 + int(offset)))
    return pairs


def _median_nearest_neighbor_degrees(
    lat: "np.ndarray", lon: "np.ndarray"
) -> float:
    """Median nearest-neighbour spacing in flat lat/lon degrees."""
    n = lat.shape[0]
    if n < 2:
        return 1.0
    dlat = lat[:, None] - lat[None, :]
    dlon = lon[:, None] - lon[None, :]
    dist = np.sqrt(dlat**2 + dlon**2)
    np.fill_diagonal(dist, np.inf)
    return float(np.median(dist.min(axis=1)))


def mesh_links(network: Network, target_avg_degree: float) -> None:
    """Wire a connected ring-and-corridor mesh into ``network``.

    Starts from the Gabriel graph and trims the longest non-bridge edges
    until the average degree drops to ``target_avg_degree`` (never
    disconnecting the network); if the Gabriel mesh is *below* target,
    adds the shortest missing links instead.

    Raises:
        ValueError: for fewer than 2 PoPs or a target below 1.
    """
    pops = network.pops()
    n = len(pops)
    if n < 2:
        raise ValueError("mesh_links needs at least two PoPs")
    if target_avg_degree < 1.0:
        raise ValueError("target_avg_degree must be >= 1")

    latlon = network.latlon()
    lat, lon = latlon.T
    # Real fiber does not follow an ideal proximity graph: jitter the
    # metric used for the *topology decision* (seeded by the network
    # name, so the corpus stays deterministic) to introduce the route
    # stretch real maps exhibit.  Link weights always use true
    # coordinates.
    rng = np.random.default_rng(zlib.crc32(network.name.encode("utf-8")))
    spacing = _median_nearest_neighbor_degrees(lat, lon)
    jitter_scale = 0.3 * spacing
    jlat = lat + rng.normal(0.0, jitter_scale, size=lat.shape)
    jlon = lon + rng.normal(0.0, jitter_scale, size=lon.shape)
    for i, j in gabriel_pairs(jlat, jlon):
        network.add_link(pops[i].pop_id, pops[j].pop_id)

    target_links = max(n - 1, int(round(target_avg_degree * n / 2.0)))

    # Trim: repeatedly drop the longest edge that is not a bridge and
    # whose endpoints keep degree >= 2 (preserves rings).
    while network.link_count > target_links:
        graph = network.distance_graph()
        bridge_set = {tuple(sorted(edge)) for edge in bridges(graph)}
        candidates = [
            link
            for link in network.links()
            if tuple(sorted((link.pop_a, link.pop_b))) not in bridge_set
            and graph.degree(link.pop_a) > 2
            and graph.degree(link.pop_b) > 2
        ]
        if not candidates:
            break
        worst = max(candidates, key=lambda l: (l.length_miles, l.endpoints))
        network.remove_link(worst.pop_a, worst.pop_b)

    # Augment: add shortest missing links if the mesh is too sparse.
    if network.link_count < target_links:
        dist = great_circle_miles(latlon, latlon)
        missing: List[Tuple[float, int, int]] = []
        for i in range(n):
            for j in range(i + 1, n):
                if not network.has_link(pops[i].pop_id, pops[j].pop_id):
                    missing.append((float(dist[i, j]), i, j))
        missing.sort()
        for _, i, j in missing:
            if network.link_count >= target_links:
                break
            network.add_link(pops[i].pop_id, pops[j].pop_id)


def build_network(
    name: str,
    cities: Sequence[City],
    pop_count: int,
    avg_degree: float,
    tier: str = NetworkTier.TIER1,
    states: Optional[Sequence[str]] = None,
) -> Network:
    """Build a complete synthetic network.

    Args:
        name: the ISP name.
        cities: ordered candidate PoP sites (first = most important).
        pop_count: number of PoPs to place.
        avg_degree: target mean PoP degree for the link mesh.
        tier: tier-1 or regional.
        states: regional population footprint (ignored for tier-1s).

    Returns:
        A connected :class:`Network`.
    """
    network = Network(name, tier=tier, states=states)
    place_pops(network, cities, pop_count)
    if pop_count >= 2:
        mesh_links(network, avg_degree)
    return network


# -- continental-scale synthesis --------------------------------------------


def _city_quotas(cities: Sequence[City], pop_count: int) -> List[int]:
    """Population-proportional PoP quotas via largest remainder.

    Every city gets at least one PoP; the surplus is apportioned by
    population share with the Hamilton (largest-remainder) rule, ties
    broken by gazetteer order — fully deterministic.
    """
    n_cities = len(cities)
    extra = pop_count - n_cities
    total = float(sum(city.population for city in cities))
    exact = [extra * city.population / total for city in cities]
    quotas = [1 + int(share) for share in exact]
    leftover = pop_count - sum(quotas)
    remainders = sorted(
        range(n_cities), key=lambda i: (-(exact[i] - int(exact[i])), i)
    )
    for i in remainders[:leftover]:
        quotas[i] += 1
    return quotas


def _vogel_offsets(count: int, spread_miles: float) -> List[Tuple[float, float]]:
    """(bearing deg, radius miles) for PoPs 1..count-1 of one metro.

    A Vogel spiral — golden-angle bearings, radius growing with the
    square root of the index — packs sites uniformly over a disc, so a
    metro with hundreds of PoPs stays metro-sized instead of marching
    off on ever-larger rings.
    """
    out: List[Tuple[float, float]] = []
    for k in range(1, count):
        out.append(((k * 137.50776) % 360.0, spread_miles * math.sqrt(k)))
    return out


class _UnionFind:
    """Path-halving union-find for the Kruskal mesh."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def continental_network(
    name: str = "Continental",
    pop_count: int = 5000,
    avg_degree: float = 3.2,
    neighbors: int = 6,
    seed: int = 0,
    metro_spread_miles: float = 2.0,
) -> Network:
    """A seeded synthetic continental-scale US backbone.

    The scale target of the ROADMAP's batched-sweep item: thousands of
    PoPs anchored to the full gazetteer.  PoPs are apportioned to
    cities by population (largest remainder, every city covered) and
    scattered over each metro on a Vogel spiral; links come from a
    k-nearest-neighbour candidate set wired Kruskal-style — spanning
    edges first (connectivity), then the shortest remaining candidates
    up to the ``avg_degree`` target.  The Gabriel construction of
    :func:`mesh_links` is O(n^3) and tops out around corpus sizes;
    everything here is chunked O(n * pop_count) and runs in seconds at
    5k PoPs.

    Deterministic for a given argument tuple: the only randomness is a
    per-metro bearing offset drawn from ``numpy.random.default_rng(seed)``.

    Raises:
        ValueError: for ``pop_count < 2``, ``avg_degree < 1`` or
            ``neighbors < 1``.
    """
    if pop_count < 2:
        raise ValueError("pop_count must be >= 2")
    if avg_degree < 1.0:
        raise ValueError("avg_degree must be >= 1")
    if neighbors < 1:
        raise ValueError("neighbors must be >= 1")
    rng = np.random.default_rng(seed)
    network = Network(name, tier=NetworkTier.TIER1)

    if pop_count < len(ALL_CITIES):
        cities = top_cities(pop_count)
        quotas = [1] * pop_count
    else:
        cities = list(ALL_CITIES)
        quotas = _city_quotas(cities, pop_count)

    for city, quota in zip(cities, quotas):
        bearing_offset = float(rng.uniform(0.0, 360.0))
        network.add_pop(
            PoP(
                pop_id=f"{name}:{city.key}",
                city=city.key,
                location=city.location,
            )
        )
        for visit, (bearing, radius) in enumerate(
            _vogel_offsets(quota, metro_spread_miles), start=1
        ):
            location = destination_point(
                city.location, (bearing + bearing_offset) % 360.0, radius
            )
            network.add_pop(
                PoP(
                    pop_id=f"{name}:{city.key}#{visit}",
                    city=city.key,
                    location=location,
                )
            )

    pops = network.pops()
    n = len(pops)
    latlon = network.latlon()

    # k-nearest-neighbour candidate edges, brute force in memory-capped
    # row chunks (a 5k x 5k float64 matrix never materialises).
    k = min(neighbors, n - 1)
    candidates: Dict[Tuple[int, int], float] = {}
    chunk = 512
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        dist = great_circle_miles(latlon[start:stop], latlon)
        rows = np.arange(start, stop)
        dist[np.arange(stop - start), rows] = np.inf
        nearest = np.argpartition(dist, k, axis=1)[:, :k]
        for local, i in enumerate(rows):
            for j in nearest[local]:
                key = (int(i), int(j)) if i < j else (int(j), int(i))
                candidates[key] = float(dist[local, j])

    ordered = sorted(
        candidates.items(), key=lambda item: (item[1], item[0])
    )
    uf = _UnionFind(n)
    spanning: List[Tuple[int, int]] = []
    extras: List[Tuple[int, int]] = []
    for (i, j), _ in ordered:
        if uf.union(i, j):
            spanning.append((i, j))
        else:
            extras.append((i, j))

    # The kNN graph can leave islands (remote metros whose k nearest
    # are all inside the island); stitch each remaining component to
    # its nearest outside PoP until one component is left.
    roots = {uf.find(i) for i in range(n)}
    while len(roots) > 1:
        members: Dict[int, List[int]] = {}
        for i in range(n):
            members.setdefault(uf.find(i), []).append(i)
        smallest = min(members.values(), key=lambda m: (len(m), m[0]))
        inside = np.array(smallest)
        dist = great_circle_miles(latlon[inside], latlon)
        outside_mask = np.ones(n, dtype=bool)
        outside_mask[inside] = False
        dist[:, ~outside_mask] = np.inf
        flat = int(np.argmin(dist))
        i = int(inside[flat // n])
        j = int(flat % n)
        uf.union(i, j)
        spanning.append((i, j) if i < j else (j, i))
        roots = {uf.find(x) for x in range(n)}

    target_links = max(n - 1, int(round(avg_degree * n / 2.0)))
    chosen = spanning + extras[: max(0, target_links - len(spanning))]
    for i, j in chosen:
        network.add_link(pops[i].pop_id, pops[j].pop_id)
    return network
