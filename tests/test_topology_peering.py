"""Tests for repro.topology.peering."""

import pytest

from repro.topology.peering import (
    CORPUS_TRANSIT,
    PeeringGraph,
    corpus_peering,
    parse_caida_as_rel,
)
from repro.topology.zoo import all_networks


class TestPeeringGraph:
    def test_add_and_query(self):
        g = PeeringGraph()
        g.add_peering("A", "B")
        assert g.are_peers("A", "B")
        assert g.are_peers("B", "A")
        assert not g.are_peers("A", "C")

    def test_self_peering_rejected(self):
        g = PeeringGraph()
        with pytest.raises(ValueError):
            g.add_peering("A", "A")

    def test_empty_name_rejected(self):
        g = PeeringGraph()
        with pytest.raises(ValueError):
            g.add_network("")

    def test_idempotent(self):
        g = PeeringGraph()
        g.add_peering("A", "B")
        g.add_peering("B", "A")
        assert g.peer_count("A") == 1

    def test_peers_sorted(self):
        g = PeeringGraph()
        g.add_peering("A", "Z")
        g.add_peering("A", "B")
        assert g.peers_of("A") == ["B", "Z"]

    def test_unknown_network(self):
        g = PeeringGraph()
        with pytest.raises(KeyError):
            g.peers_of("ghost")
        with pytest.raises(KeyError):
            g.peer_count("ghost")


class TestCorpusPeering:
    def test_tier1_full_mesh(self):
        g = corpus_peering()
        tier1 = ["Level3", "ATT", "Deutsche", "NTT", "Sprint", "Tinet", "Teliasonera"]
        for i, a in enumerate(tier1):
            for b in tier1[i + 1 :]:
                assert g.are_peers(a, b), (a, b)

    def test_regional_transit_recorded(self):
        g = corpus_peering()
        for regional, providers in CORPUS_TRANSIT.items():
            for provider in providers:
                assert g.are_peers(regional, provider)

    def test_23_networks(self):
        g = corpus_peering()
        names = {network.name for network in all_networks()}
        assert len(names) == 23
        for name in names:
            # Registered (peer_count raises KeyError otherwise), with
            # every relationship inside the corpus.
            assert g.peer_count(name) > 0
            assert set(g.peers_of(name)) <= names

    def test_att_and_tinet_underrepresented(self):
        # The Figure 11 setup requires AT&T and Tinet to be rare transit
        # providers so they remain available as new peers.
        g = corpus_peering()
        att_regionals = [
            r for r in CORPUS_TRANSIT if g.are_peers(r, "ATT")
        ]
        tinet_regionals = [
            r for r in CORPUS_TRANSIT if g.are_peers(r, "Tinet")
        ]
        assert not att_regionals
        assert not tinet_regionals


class TestCaidaParser:
    def test_basic_parse(self):
        lines = [
            "# comment",
            "1|2|0",
            "3|1|-1",
            "",
        ]
        g = parse_caida_as_rel(lines)
        assert g.are_peers("AS1", "AS2")
        assert g.are_peers("AS1", "AS3")

    def test_name_mapping(self):
        g = parse_caida_as_rel(["3356|7018|0"], names={3356: "Level3", 7018: "ATT"})
        assert g.are_peers("Level3", "ATT")

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            parse_caida_as_rel(["1|2"])

    def test_non_numeric(self):
        with pytest.raises(ValueError):
            parse_caida_as_rel(["a|b|0"])

    def test_unknown_relationship_code(self):
        with pytest.raises(ValueError):
            parse_caida_as_rel(["1|2|7"])
