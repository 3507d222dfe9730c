"""Cross-cutting invariants over the full synthetic corpus.

These are the "would a downstream user trip over this?" checks: id
hygiene, geometric consistency, and agreement between the different
views of the same data (Network vs Graph vs RiskModel vs census).
"""

import pytest

from repro.geo.distance import haversine_miles
from repro.population.census import synthetic_census
from repro.risk.model import RiskModel
from repro.topology.interdomain import InterdomainTopology
from repro.topology.peering import corpus_peering
from repro.topology.zoo import all_networks, regional_networks, tier1_networks


class TestIdHygiene:
    def test_pop_id_prefix_is_network_name(self):
        for network in all_networks():
            for pop in network.pops():
                assert pop.pop_id.startswith(f"{network.name}:"), pop.pop_id

    def test_pop_city_is_gazetteer_key(self):
        from repro.topology.cities import ALL_CITIES

        keys = {c.key for c in ALL_CITIES}
        for network in all_networks():
            for pop in network.pops():
                assert pop.city in keys, pop.pop_id


class TestGeometry:
    def test_link_lengths_match_pop_geometry(self):
        for network in all_networks():
            for link in network.links():
                expected = haversine_miles(
                    network.pop(link.pop_a).location,
                    network.pop(link.pop_b).location,
                )
                assert link.length_miles == pytest.approx(expected, rel=1e-9)

    def test_graph_view_agrees_with_network(self):
        for network in tier1_networks():
            graph = network.distance_graph()
            assert graph.node_count == network.pop_count
            assert graph.edge_count == network.link_count
            for link in network.links():
                assert graph.weight(link.pop_a, link.pop_b) == pytest.approx(
                    link.length_miles
                )

    def test_no_degenerate_links(self):
        for network in all_networks():
            for link in network.links():
                assert link.length_miles > 0.5, (
                    network.name,
                    link.pop_a,
                    link.pop_b,
                )


class TestPeeringConsistency:
    def test_every_corpus_network_in_peering_graph(self):
        peering = corpus_peering()
        for network in all_networks():
            # peers_of raises KeyError for an unregistered network.
            assert peering.peers_of(network.name), network.name

    def test_every_regional_has_level3_or_sprint(self):
        peering = corpus_peering()
        for network in regional_networks():
            peers = set(peering.peers_of(network.name))
            assert peers & {"Level3", "Sprint"}, network.name

    def test_merged_topology_has_peering_edges_for_every_regional(self):
        topology = InterdomainTopology(list(all_networks()), corpus_peering())
        graph = topology.merged_graph()
        for network in regional_networks():
            cross = 0
            for pop_id in network.pop_ids():
                for neighbor in graph.neighbors(pop_id):
                    if topology.owner_of(neighbor) != network.name:
                        cross += 1
            assert cross > 0, f"{network.name} has no egress"


class TestModelConsistency:
    def test_interdomain_model_matches_per_network_models(self):
        networks = list(tier1_networks())[:3]
        topology = InterdomainTopology(networks, corpus_peering())
        merged = RiskModel.for_interdomain(topology)
        for network in networks:
            single = RiskModel.for_network(network)
            for pop_id in network.pop_ids():
                assert merged.share(pop_id) == pytest.approx(
                    single.share(pop_id)
                )
                assert merged.historical_risk(pop_id) == pytest.approx(
                    single.historical_risk(pop_id)
                )

    def test_census_population_plausible(self):
        census = synthetic_census()
        # Synthetic total is in the 10^8 range (relative weights only).
        assert 1e7 < census.total_population < 1e10
