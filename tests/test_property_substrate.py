"""Parity of the column-built substrate with the scalar code it replaced.

The synthetic substrate (PAPER.md section 2) is built in numpy columns:
event catalogs from bulk normal draws, and census-to-PoP assignment
from unit-vector dot products that recheck near-ties with the haversine
``h``.  Each test holds a column path against the per-point scalar
reference below, computed in the same process.  numpy does not promise
that ``Generator`` streams stay the same across versions, so no golden
digest is stored.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.disasters.catalog import CATALOG_SEEDS, catalog_of
from repro.disasters.events import PAPER_EVENT_COUNTS, EventType
from repro.disasters.generators import EVENT_MODELS
from repro.geo.coords import CONTINENTAL_US, BoundingBox, GeoPoint
from repro.geo.regions import states_region
from repro.population import assignment
from repro.population.assignment import network_population_shares
from repro.population.census import synthetic_census
from repro.stats.sampling import sample_gaussian_cluster
from repro.topology.zoo import all_networks
from tests.conftest import examples

_DEGREES_PER_MILE_LAT = 1.0 / 69.05

#: The census chunk of the scalar sweep.
_REFERENCE_CHUNK = 16_384


# -- scalar references -------------------------------------------------------


def scalar_cluster(rng, center, spread_miles, count, clamp=None):
    """The per-attempt sampler: two ``rng.normal`` calls per attempt."""
    sigma_lat = spread_miles * _DEGREES_PER_MILE_LAT
    cos_lat = max(0.05, np.cos(np.radians(center.lat)))
    sigma_lon = sigma_lat / cos_lat
    points = []
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
    return (
        np.array([p.lat for p in points], dtype=np.float64),
        np.array([p.lon for p in points], dtype=np.float64),
    )


def scalar_catalog(event_type, count, seed, year_range=(1970, 2010)):
    """``(lat, lon, year)`` of the per-event generator loop."""
    model = EVENT_MODELS[event_type]
    rng = np.random.default_rng(seed)
    weights = np.array([w for _, _, w in model.components], dtype=np.float64)
    allocation = rng.multinomial(count, weights / weights.sum())
    lats, lons = [], []
    for (center, spread, _), n in zip(model.components, allocation):
        lat, lon = scalar_cluster(
            rng, center, spread, int(n), clamp=CONTINENTAL_US
        )
        lats.append(lat)
        lons.append(lon)
    years = rng.integers(year_range[0], year_range[1] + 1, size=count)
    return np.concatenate(lats), np.concatenate(lons), years


def scalar_nearest(block_lat, block_lon, pop_lat, pop_lon):
    """The chunked haversine-``h`` argmin over every PoP."""
    pop_lat = np.radians(pop_lat)
    pop_lon = np.radians(pop_lon)
    cos_pop_lat = np.cos(pop_lat)
    block_lat = np.radians(block_lat)
    block_lon = np.radians(block_lon)
    parts = []
    for start in range(0, len(block_lat), _REFERENCE_CHUNK):
        end = min(start + _REFERENCE_CHUNK, len(block_lat))
        dlat = block_lat[start:end, None] - pop_lat[None, :]
        dlon = block_lon[start:end, None] - pop_lon[None, :]
        h = (
            np.sin(dlat / 2.0) ** 2
            + np.cos(block_lat[start:end])[:, None]
            * cos_pop_lat[None, :]
            * np.sin(dlon / 2.0) ** 2
        )
        parts.append(np.argmin(h, axis=1))
    return np.concatenate(parts)


def scalar_shares(census, pops):
    """``{pop_id: c_i}``, populations added chunk by chunk."""
    nearest = scalar_nearest(
        census.lat,
        census.lon,
        np.array([p.location.lat for p in pops]),
        np.array([p.location.lon for p in pops]),
    )
    served = np.zeros(len(pops), dtype=np.float64)
    for start in range(0, census.block_count, _REFERENCE_CHUNK):
        end = min(start + _REFERENCE_CHUNK, census.block_count)
        np.add.at(served, nearest[start:end], census.population[start:end])
    total = census.total_population
    return {
        pop.pop_id: float(served[i] / total) for i, pop in enumerate(pops)
    }


# -- the event sampler -------------------------------------------------------


@st.composite
def clusters(draw):
    """``(center, spread, count, clamp)``.  The clamp, when present, is
    placed relative to the cluster in units of its spread, from boxes
    that hold most draws to far-off ones that force the 100-attempt
    fallback."""
    center = GeoPoint(
        draw(st.floats(-60.0, 60.0)), draw(st.floats(-170.0, 170.0))
    )
    spread = draw(st.floats(0.5, 800.0))
    count = draw(st.integers(0, 40))
    if draw(st.booleans()):
        return center, spread, count, None
    sigma = spread * _DEGREES_PER_MILE_LAT
    south = center.lat + sigma * draw(st.floats(-4.0, 40.0))
    west = center.lon + sigma * draw(st.floats(-4.0, 40.0))
    south = min(89.0, max(-89.0, south))
    west = min(179.0, max(-179.0, west))
    north = min(90.0, south + sigma * draw(st.floats(0.0, 6.0)))
    east = min(180.0, west + sigma * draw(st.floats(0.0, 6.0)))
    return center, spread, count, BoundingBox(south, west, north, east)


def _assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestSamplerParity:
    @given(seed=st.integers(0, 2**32 - 1), cluster=clusters())
    @example(  # tight and far off: every point takes the fallback
        seed=3,
        cluster=(
            GeoPoint(35.0, -95.0), 20.0, 7,
            BoundingBox(45.0, -70.0, 45.01, -69.99),
        ),
    )
    @example(  # a box at the cluster's edge: runs straddle rounds
        seed=11,
        cluster=(
            GeoPoint(35.0, -95.0), 100.0, 40,
            BoundingBox(37.5, -95.5, 38.5, -94.5),
        ),
    )
    @settings(max_examples=examples(60), deadline=None)
    def test_columns_equal_scalar_loop(self, seed, cluster):
        center, spread, count, clamp = cluster
        columns_rng = np.random.default_rng(seed)
        scalar_rng = np.random.default_rng(seed)
        lat, lon = sample_gaussian_cluster(
            columns_rng, center, spread, count, clamp=clamp
        )
        ref_lat, ref_lon = scalar_cluster(
            scalar_rng, center, spread, count, clamp=clamp
        )
        _assert_same_bits(lat, ref_lat)
        _assert_same_bits(lon, ref_lon)
        # Same generator state: the next draw agrees.
        assert columns_rng.random() == scalar_rng.random()

    def test_fallback_clips_into_the_box(self):
        box = BoundingBox(45.0, -70.0, 45.01, -69.99)
        lat, lon = sample_gaussian_cluster(
            np.random.default_rng(5), GeoPoint(35.0, -95.0), 20.0, 4,
            clamp=box,
        )
        assert lat.tolist() == [45.0] * 4
        assert lon.tolist() == [-70.0] * 4

    def test_every_corpus_catalog_equals_scalar_reference(self):
        assert set(CATALOG_SEEDS) == set(EventType.ALL)
        for event_type in EventType.ALL:
            catalog = catalog_of(event_type)
            lat, lon, year = scalar_catalog(
                event_type,
                PAPER_EVENT_COUNTS[event_type],
                CATALOG_SEEDS[event_type],
            )
            _assert_same_bits(catalog.lat, lat)
            _assert_same_bits(catalog.lon, lon)
            assert catalog.year.tolist() == year.tolist()


# -- nearest PoP -------------------------------------------------------------

coords = st.tuples(st.floats(20.0, 55.0), st.floats(-130.0, -60.0))


@st.composite
def pop_sets(draw):
    """PoP (lat, lon) columns with some coordinates repeated."""
    pops = draw(st.lists(coords, min_size=1, max_size=12))
    for index in draw(st.lists(st.integers(0, len(pops) - 1), max_size=4)):
        pops.insert(draw(st.integers(0, len(pops))), pops[index])
    lat, lon = zip(*pops)
    return np.array(lat), np.array(lon)


def _nearest(block_lat, block_lon, pop_lat, pop_lon, chunk):
    saved = assignment._CHUNK
    assignment._CHUNK = chunk
    try:
        return assignment._nearest_pops(
            block_lat, block_lon, pop_lat, pop_lon
        )
    finally:
        assignment._CHUNK = saved


class TestNearestPopParity:
    @given(
        pops=pop_sets(),
        blocks=st.lists(coords, min_size=1, max_size=60),
        on_pops=st.lists(st.integers(0, 100), max_size=6),
        chunk=st.integers(1, 64),
    )
    @settings(max_examples=examples(80), deadline=None)
    def test_index_equals_haversine_argmin(
        self, pops, blocks, on_pops, chunk
    ):
        pop_lat, pop_lon = pops
        # Blocks sitting exactly on a PoP, which may be duplicated.
        for k in on_pops:
            k %= len(pop_lat)
            blocks.append((pop_lat[k], pop_lon[k]))
        block_lat, block_lon = (np.array(c) for c in zip(*blocks))
        got = _nearest(block_lat, block_lon, pop_lat, pop_lon, chunk)
        want = scalar_nearest(block_lat, block_lon, pop_lat, pop_lon)
        assert got.tolist() == want.tolist()

    def test_meridian_midpoint_goes_to_lower_index(self):
        """A block on the meridian midway between two PoPs at equal
        latitude is an exact ``h`` tie."""
        block_lat, block_lon = np.array([40.0, 30.0]), np.array([0.0, 0.0])
        for pop_lon in ([-1.5, 1.5], [1.5, -1.5]):
            pop_lat = np.array([35.0, 35.0])
            got = _nearest(
                block_lat, block_lon, pop_lat, np.array(pop_lon), 2048
            )
            assert got.tolist() == [0, 0]
            assert got.tolist() == scalar_nearest(
                block_lat, block_lon, pop_lat, np.array(pop_lon)
            ).tolist()

    def test_gap_below_dot_rounding_follows_haversine(self):
        """PoP 0 is farther than PoP 1 by ~1e-13 degrees of longitude:
        their dot products round to the same double, ``h`` tells them
        apart, and the recheck takes ``h``'s answer."""
        pop_lat = np.array([35.0, 35.0])
        pop_lon = np.array([1.5 + 1e-13, -1.5])
        block_lat = np.array([35.3, 40.0, 20.0])
        block_lon = np.zeros(3)
        got = _nearest(block_lat, block_lon, pop_lat, pop_lon, 2048)
        assert got.tolist() == [1, 1, 1]
        assert got.tolist() == scalar_nearest(
            block_lat, block_lon, pop_lat, pop_lon
        ).tolist()

    def test_duplicate_pops_go_to_lower_index(self):
        pop_lat = np.array([41.0, 35.0, 35.0, 41.0])
        pop_lon = np.array([-87.6, -90.0, -90.0, -87.6])
        block_lat = np.array([41.1, 35.2, 41.0])
        block_lon = np.array([-87.5, -90.1, -87.6])
        got = _nearest(block_lat, block_lon, pop_lat, pop_lon, 2048)
        assert got.tolist() == [0, 1, 0]

    def test_every_corpus_network_shares_equal_scalar_reference(self):
        census = synthetic_census()
        for network in all_networks():
            working = census
            if network.tier == "regional" and network.states:
                working = census.restricted_to(
                    states_region(list(network.states))
                )
            want = scalar_shares(working, network.pops())
            got = network_population_shares(network)
            assert list(got) == list(want), network.name
            assert [v.hex() for v in got.values()] == [
                v.hex() for v in want.values()
            ], network.name
