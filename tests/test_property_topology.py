"""Property-based tests for topology construction and traffic."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.builders import build_network, gabriel_pairs
from repro.topology.cities import ALL_CITIES
from repro.traffic.gravity import TrafficMatrix
from tests.conftest import examples, reaches_every_node


city_subsets = st.lists(
    st.sampled_from(list(ALL_CITIES[:80])), min_size=4, max_size=25, unique=True
)


class TestBuilderProperties:
    @given(city_subsets, st.floats(2.0, 4.0), st.integers(4, 30))
    @settings(max_examples=examples(30), deadline=None)
    def test_built_networks_always_connected(self, cities, degree, count):
        network = build_network("prop", cities, count, degree)
        assert network.pop_count == count
        assert reaches_every_node(network.distance_graph())

    @given(city_subsets, st.floats(2.0, 4.0))
    @settings(max_examples=examples(30), deadline=None)
    def test_no_duplicate_links(self, cities, degree):
        network = build_network("prop", cities, len(cities), degree)
        endpoints = [link.endpoints for link in network.links()]
        assert len(endpoints) == len(set(endpoints))

    @given(city_subsets)
    @settings(max_examples=examples(30), deadline=None)
    def test_deterministic_construction(self, cities):
        a = build_network("prop", cities, len(cities), 3.0)
        b = build_network("prop", cities, len(cities), 3.0)
        assert sorted(l.endpoints for l in a.links()) == sorted(
            l.endpoints for l in b.links()
        )

    @given(city_subsets, st.floats(2.0, 3.5))
    @settings(max_examples=examples(30), deadline=None)
    def test_degree_near_target(self, cities, degree):
        count = len(cities)
        network = build_network("prop", cities, count, degree)
        # Never below tree density; never wildly above the target.
        assert network.link_count >= count - 1
        assert network.average_outdegree() <= degree + 2.5


class TestGabrielProperties:
    coords = st.lists(
        st.tuples(st.floats(25.0, 49.0), st.floats(-124.0, -67.0)),
        min_size=2,
        max_size=25,
        unique=True,
    )

    @given(coords)
    @settings(max_examples=examples(40), deadline=None)
    def test_gabriel_connected(self, pairs):
        lat = np.array([a for a, _ in pairs])
        lon = np.array([b for _, b in pairs])
        edges = gabriel_pairs(lat, lon)
        parent = list(range(len(pairs)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j in edges:
            parent[find(i)] = find(j)
        assert len({find(i) for i in range(len(pairs))}) == 1

    @given(coords)
    @settings(max_examples=examples(40), deadline=None)
    def test_gabriel_edges_valid(self, pairs):
        lat = np.array([a for a, _ in pairs])
        lon = np.array([b for _, b in pairs])
        for i, j in gabriel_pairs(lat, lon):
            assert 0 <= i < j < len(pairs)


class TestTrafficMatrixProperties:
    @given(st.integers(2, 10), st.integers(0, 1000))
    @settings(max_examples=examples(40), deadline=None)
    def test_normalisation_invariant(self, n, seed):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.0, 5.0, size=(n, n))
        demands = (raw + raw.T) / 2.0
        np.fill_diagonal(demands, 0.0)
        if demands.sum() == 0.0:
            demands[0, 1] = demands[1, 0] = 1.0
        matrix = TrafficMatrix([f"p{i}" for i in range(n)], demands)
        assert abs(matrix.as_array().sum() - 1.0) < 1e-12
        total = sum(
            matrix.demand(f"p{i}", f"p{j}")
            for i in range(n)
            for j in range(n)
            if i != j
        )
        assert abs(total - 1.0) < 1e-9
