"""Tests for repro.topology.network."""

import numpy as np
import pytest

from repro.geo.coords import GeoPoint
from repro.geo.distance import haversine_miles
from repro.topology.network import Link, Network, NetworkTier, PoP
from tests.conftest import reaches_every_node

NYC = GeoPoint(40.71, -74.01)
BOSTON = GeoPoint(42.36, -71.06)
DC = GeoPoint(38.91, -77.04)


def small_network() -> Network:
    net = Network("test", tier=NetworkTier.TIER1)
    net.add_pop(PoP("test:nyc", "New York, NY", NYC))
    net.add_pop(PoP("test:bos", "Boston, MA", BOSTON))
    net.add_pop(PoP("test:dc", "Washington, DC", DC))
    net.add_link("test:nyc", "test:bos")
    net.add_link("test:nyc", "test:dc")
    return net


class TestPoP:
    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            PoP("", "X", NYC)


class TestLink:
    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            Link("a", "a", 1.0)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            Link("a", "b", -1.0)

    def test_endpoints_canonical(self):
        assert Link("z", "a", 1.0).endpoints == ("a", "z")


class TestNetworkConstruction:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Network("")

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError):
            Network("x", tier="tier9")

    def test_duplicate_pop_rejected(self):
        net = small_network()
        with pytest.raises(ValueError):
            net.add_pop(PoP("test:nyc", "New York, NY", NYC))

    def test_link_unknown_pop_rejected(self):
        net = small_network()
        with pytest.raises(KeyError):
            net.add_link("test:nyc", "test:ghost")

    def test_duplicate_link_rejected(self):
        net = small_network()
        with pytest.raises(ValueError):
            net.add_link("test:bos", "test:nyc")

    def test_link_length_is_great_circle(self):
        net = small_network()
        link = [l for l in net.links() if "bos" in l.pop_b or "bos" in l.pop_a][0]
        assert link.length_miles == pytest.approx(
            haversine_miles(NYC, BOSTON), rel=1e-9
        )

    def test_remove_link(self):
        net = small_network()
        net.remove_link("test:bos", "test:nyc")
        assert not net.has_link("test:nyc", "test:bos")
        with pytest.raises(KeyError):
            net.remove_link("test:nyc", "test:bos")


class TestNetworkQueries:
    def test_counts(self):
        net = small_network()
        assert net.pop_count == 3
        assert net.link_count == 2

    def test_pop_lookup(self):
        net = small_network()
        assert net.pop("test:nyc").city == "New York, NY"
        with pytest.raises(KeyError):
            net.pop("test:ghost")

    def test_has_pop(self):
        net = small_network()
        assert net.has_pop("test:dc")
        assert not net.has_pop("test:ghost")

    def test_locations_order(self):
        assert small_network().locations() == [NYC, BOSTON, DC]

    def test_latlon_in_pops_order(self):
        latlon = small_network().latlon()
        assert latlon.dtype == np.float64
        assert latlon.tolist() == [[p.lat, p.lon] for p in (NYC, BOSTON, DC)]
        assert Network("empty").latlon().shape == (0, 2)

    def test_average_outdegree(self):
        assert small_network().average_outdegree() == pytest.approx(4.0 / 3.0)

    def test_footprint(self):
        net = small_network()
        assert net.geographic_footprint_miles() == pytest.approx(
            haversine_miles(BOSTON, DC), rel=1e-9
        )


class TestDerivedStructure:
    def test_distance_graph(self):
        graph = small_network().distance_graph()
        assert graph.node_count == 3
        assert graph.edge_count == 2
        assert graph.weight("test:nyc", "test:bos") == pytest.approx(
            haversine_miles(NYC, BOSTON)
        )

    def test_is_connected(self):
        net = small_network()
        assert reaches_every_node(net.distance_graph())
        net.remove_link("test:nyc", "test:dc")
        assert not reaches_every_node(net.distance_graph())

    def test_copy_independent(self):
        net = small_network()
        clone = net.copy()
        clone.remove_link("test:nyc", "test:dc")
        assert net.has_link("test:nyc", "test:dc")

    def test_repr(self):
        assert "pops=3" in repr(small_network())
