"""Tests for repro.topology.builders."""

import math

import numpy as np
import pytest

from repro.geo.distance import haversine_miles
from repro.topology.builders import (
    build_network,
    continental_network,
    gabriel_pairs,
    mesh_links,
    place_pops,
)
from repro.topology.cities import ALL_CITIES, top_cities
from repro.topology.network import Network
from tests.conftest import reaches_every_node


class TestPlacePops:
    def test_one_pop_per_city(self):
        net = Network("t")
        cities = top_cities(5)
        place_pops(net, cities, 5)
        assert net.pop_count == 5
        assert {p.city for p in net.pops()} == {c.key for c in cities}

    def test_metro_jitter_for_repeats(self):
        net = Network("t")
        cities = top_cities(2)
        place_pops(net, cities, 6)
        assert net.pop_count == 6
        nyc_pops = [p for p in net.pops() if p.city == "New York, NY"]
        assert len(nyc_pops) == 3
        # Jittered sites are distinct but within the metro area.
        base = nyc_pops[0].location
        for extra in nyc_pops[1:]:
            dist = haversine_miles(base, extra.location)
            assert 1.0 < dist < 60.0

    def test_unique_pop_ids(self):
        net = Network("t")
        place_pops(net, top_cities(3), 12)
        ids = [p.pop_id for p in net.pops()]
        assert len(ids) == len(set(ids))

    def test_no_cities_rejected(self):
        net = Network("t")
        with pytest.raises(ValueError):
            place_pops(net, [], 3)

    def test_negative_count_rejected(self):
        net = Network("t")
        with pytest.raises(ValueError):
            place_pops(net, top_cities(3), -1)


class TestGabriel:
    def test_two_points_connected(self):
        pairs = gabriel_pairs(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert pairs == [(0, 1)]

    def test_collinear_middle_blocks(self):
        # Middle point sits inside the disc of the outer pair.
        lat = np.array([0.0, 0.0, 0.0])
        lon = np.array([0.0, 1.0, 2.0])
        pairs = gabriel_pairs(lat, lon)
        assert (0, 2) not in pairs
        assert (0, 1) in pairs
        assert (1, 2) in pairs

    def test_empty_and_single(self):
        assert gabriel_pairs(np.array([]), np.array([])) == []
        assert gabriel_pairs(np.array([1.0]), np.array([1.0])) == []

    def test_gabriel_connected(self):
        rng = np.random.default_rng(0)
        lat = rng.uniform(30, 45, 40)
        lon = rng.uniform(-120, -75, 40)
        pairs = gabriel_pairs(lat, lon)
        # Union-find connectivity check.
        parent = list(range(40))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j in pairs:
            parent[find(i)] = find(j)
        assert len({find(i) for i in range(40)}) == 1


class TestMeshLinks:
    def test_connected_after_meshing(self):
        net = Network("t")
        place_pops(net, top_cities(20), 20)
        mesh_links(net, 3.0)
        assert reaches_every_node(net.distance_graph())

    def test_average_degree_near_target(self):
        net = Network("t")
        place_pops(net, top_cities(30), 30)
        mesh_links(net, 3.0)
        assert net.average_outdegree() == pytest.approx(3.0, abs=0.5)

    def test_too_few_pops_rejected(self):
        net = Network("t")
        place_pops(net, top_cities(1), 1)
        with pytest.raises(ValueError):
            mesh_links(net, 2.0)

    def test_invalid_degree_rejected(self):
        net = Network("t")
        place_pops(net, top_cities(5), 5)
        with pytest.raises(ValueError):
            mesh_links(net, 0.5)

    def test_deterministic(self):
        def build():
            net = Network("t")
            place_pops(net, top_cities(15), 15)
            mesh_links(net, 2.8)
            return sorted(l.endpoints for l in net.links())

        assert build() == build()


class TestBuildNetwork:
    def test_full_build(self):
        net = build_network("demo", top_cities(12), 12, 2.5)
        assert net.pop_count == 12
        assert reaches_every_node(net.distance_graph())

    def test_regional_states_recorded(self):
        net = build_network(
            "demo", top_cities(5), 5, 2.0, tier="regional", states=("TX",)
        )
        assert net.tier == "regional"
        assert net.states == ("TX",)

    def test_single_pop_no_links(self):
        net = build_network("demo", top_cities(1), 1, 2.0)
        assert net.pop_count == 1
        assert net.link_count == 0


class TestContinentalNetwork:
    def test_small_build_connected_and_sized(self):
        net = continental_network(pop_count=120, seed=3)
        assert net.pop_count == 120
        assert reaches_every_node(net.distance_graph())
        target_links = round(3.2 * 120 / 2)
        assert net.link_count >= 119  # at least spanning
        assert abs(net.link_count - target_links) <= 2

    def test_deterministic_for_seed(self):
        # The only randomness is the per-metro bearing offset, which
        # only moves repeat PoPs — so seeds must matter exactly when
        # cities host more than one PoP.
        def build(pop_count, seed):
            net = continental_network(pop_count=pop_count, seed=seed)
            return (
                sorted(l.endpoints for l in net.links()),
                sorted(
                    (p.pop_id, p.location.lat, p.location.lon)
                    for p in net.pops()
                ),
            )

        assert build(80, 5) == build(80, 5)
        assert build(80, 5) == build(80, 6)  # no repeats, no randomness
        scale = len(ALL_CITIES) + 40
        assert build(scale, 5) == build(scale, 5)
        assert build(scale, 5) != build(scale, 6)

    def test_quota_covers_every_city_at_scale(self):
        # pop_count >= gazetteer size: every city gets at least one PoP.
        count = len(ALL_CITIES) + 40
        net = continental_network(pop_count=count, seed=0)
        assert net.pop_count == count
        cities = {p.city for p in net.pops()}
        assert len(cities) == len(ALL_CITIES)

    def test_metro_scatter_stays_local(self):
        spread = 2.0
        net = continental_network(
            pop_count=len(ALL_CITIES) + 60,
            seed=1,
            metro_spread_miles=spread,
        )
        by_city = {}
        for pop in net.pops():
            by_city.setdefault(pop.city, []).append(pop)
        widest = max(len(pops) for pops in by_city.values())
        assert widest > 1  # repeats exist, so the scatter is exercised
        for pops in by_city.values():
            if len(pops) < 2:
                continue
            anchor = pops[0].location
            for pop in pops[1:]:
                # Vogel spiral radius is spread * sqrt(k).
                bound = spread * math.sqrt(len(pops)) + 1e-6
                assert haversine_miles(anchor, pop.location) <= bound

    def test_footprint_is_continental(self):
        net = continental_network(pop_count=150, seed=0)
        lats = [p.location.lat for p in net.pops()]
        lons = [p.location.lon for p in net.pops()]
        assert max(lats) - min(lats) > 10.0
        assert max(lons) - min(lons) > 30.0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            continental_network(pop_count=1)
        with pytest.raises(ValueError):
            continental_network(pop_count=10, avg_degree=0.5)
        with pytest.raises(ValueError):
            continental_network(pop_count=10, neighbors=0)

    def test_unique_pop_ids(self):
        net = continental_network(pop_count=500, seed=0)
        ids = [p.pop_id for p in net.pops()]
        assert len(ids) == len(set(ids))
