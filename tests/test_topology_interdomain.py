"""Tests for repro.topology.interdomain."""

import pytest

from repro.geo.coords import GeoPoint
from repro.topology.interdomain import InterdomainTopology
from repro.topology.network import Network, PoP
from repro.topology.peering import PeeringGraph
from tests.conftest import reaches_every_node


def two_isps():
    """Two ISPs sharing Chicago and New York metros."""
    a = Network("A")
    a.add_pop(PoP("A:chi", "Chicago", GeoPoint(41.88, -87.63)))
    a.add_pop(PoP("A:nyc", "New York", GeoPoint(40.71, -74.01)))
    a.add_link("A:chi", "A:nyc")

    b = Network("B")
    b.add_pop(PoP("B:chi", "Chicago", GeoPoint(41.90, -87.65)))
    b.add_pop(PoP("B:den", "Denver", GeoPoint(39.74, -104.98)))
    b.add_link("B:chi", "B:den")
    return a, b


def peered():
    g = PeeringGraph()
    g.add_peering("A", "B")
    return g


class TestConstruction:
    def test_duplicate_names_rejected(self):
        a, _ = two_isps()
        with pytest.raises(ValueError):
            InterdomainTopology([a, a.copy()], peered())

    def test_owner_lookup(self):
        a, b = two_isps()
        topo = InterdomainTopology([a, b], peered())
        assert topo.owner_of("A:chi") == "A"
        assert topo.owner_of("B:den") == "B"
        with pytest.raises(KeyError):
            topo.owner_of("C:x")


def _cross_network_edges(topo):
    """The merged graph's edges between PoPs of different networks."""
    graph = topo.merged_graph()
    return [
        (u, v)
        for u in graph.nodes()
        for v in graph.neighbors(u)
        if u < v and topo.owner_of(u) != topo.owner_of(v)
    ]


class TestPeeringEdges:
    def test_colocated_pair_connected(self):
        a, b = two_isps()
        topo = InterdomainTopology([a, b], peered())
        edges = _cross_network_edges(topo)
        assert len(edges) == 1
        assert set(edges[0]) == {"A:chi", "B:chi"}

    def test_no_relationship_no_edges(self):
        a, b = two_isps()
        g = PeeringGraph()
        g.add_network("A")
        g.add_network("B")
        topo = InterdomainTopology([a, b], g)
        assert _cross_network_edges(topo) == []

    def test_merged_graph_connects_networks(self):
        a, b = two_isps()
        topo = InterdomainTopology([a, b], peered())
        graph = topo.merged_graph()
        assert reaches_every_node(graph)
        assert graph.node_count == 4


class TestCandidates:
    def test_candidate_when_unpeered(self):
        a, b = two_isps()
        g = PeeringGraph()
        g.add_network("A")
        g.add_network("B")
        topo = InterdomainTopology([a, b], g)
        candidates = topo.candidate_peerings("A")
        assert len(candidates) == 1
        assert candidates[0].network_b == "B"
        assert topo.candidate_peer_networks("A") == ["B"]

    def test_no_candidates_when_peered(self):
        a, b = two_isps()
        topo = InterdomainTopology([a, b], peered())
        assert topo.candidate_peerings("A") == []

    def test_unknown_network(self):
        a, b = two_isps()
        topo = InterdomainTopology([a, b], peered())
        with pytest.raises(KeyError):
            topo.candidate_peerings("ghost")


class TestCorpusIntegration:
    def test_corpus_merge_is_connected(self):
        from repro.topology.peering import corpus_peering
        from repro.topology.zoo import all_networks

        topo = InterdomainTopology(list(all_networks()), corpus_peering())
        assert reaches_every_node(topo.merged_graph())
