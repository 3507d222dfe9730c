"""Tests for repro.core.provisioning — Equation 4 and Figure 11."""

import pytest

from repro.core import provisioning
from repro.core.provisioning import (
    ProvisioningAnalyzer,
    _ComponentMatrices,
    best_new_peering,
)
from repro.engine import RoutingEngine
from repro.geo.coords import GeoPoint
from repro.risk.model import RiskModel
from repro.session import RoutingSession
from repro.topology.interdomain import InterdomainTopology
from repro.topology.network import Network, PoP
from repro.topology.peering import PeeringGraph


def chain_network() -> Network:
    """Four PoPs in a west-east chain; the middle hops are a detour."""
    net = Network("chain")
    net.add_pop(PoP("chain:a", "A", GeoPoint(39.0, -100.0)))
    net.add_pop(PoP("chain:b", "B", GeoPoint(41.5, -97.0)))
    net.add_pop(PoP("chain:c", "C", GeoPoint(41.5, -93.0)))
    net.add_pop(PoP("chain:d", "D", GeoPoint(39.0, -90.0)))
    net.add_link("chain:a", "chain:b")
    net.add_link("chain:b", "chain:c")
    net.add_link("chain:c", "chain:d")
    return net


def chain_model(gamma_h=1e5) -> RiskModel:
    shares = {"chain:a": 0.25, "chain:b": 0.25, "chain:c": 0.25, "chain:d": 0.25}
    oh = {"chain:a": 1e-3, "chain:b": 4e-2, "chain:c": 4e-2, "chain:d": 1e-3}
    of = {k: 0.0 for k in shares}
    return RiskModel(shares, oh, of, gamma_h=gamma_h)


def candidates(network: Network):
    """The candidate set ``E_C`` of ``network``, as provisioning sees it."""
    engine = RoutingEngine(network.distance_graph(), chain_model())
    return _ComponentMatrices(network, engine).candidate_list()


def baseline_total(network: Network, model: RiskModel) -> float:
    """Aggregate bit-risk miles over ``network``'s unordered pairs."""
    engine = RoutingEngine(network.distance_graph(), model)
    return _ComponentMatrices(network, engine).baseline_total()


class TestCandidateLinks:
    def test_direct_ad_link_is_candidate(self):
        pairs = {(c.pop_a, c.pop_b) for c in candidates(chain_network())}
        assert ("chain:a", "chain:d") in pairs

    def test_threshold_filters(self, monkeypatch):
        monkeypatch.setattr(provisioning, "REDUCTION_THRESHOLD", 0.9)
        assert candidates(chain_network()) == []

    def test_length_cap_filters(self, monkeypatch):
        monkeypatch.setattr(provisioning, "MAX_LENGTH_MILES", 100.0)
        assert candidates(chain_network()) == []

    def test_existing_links_excluded(self, monkeypatch):
        monkeypatch.setattr(provisioning, "REDUCTION_THRESHOLD", 0.0)
        pairs = {(c.pop_a, c.pop_b) for c in candidates(chain_network())}
        assert ("chain:a", "chain:b") not in pairs

    def test_mileage_reduction_computed(self):
        for c in candidates(chain_network()):
            assert 0.0 < c.length_miles < c.current_route_miles


class TestAnalyzer:
    def test_baseline_positive(self):
        assert baseline_total(chain_network(), chain_model()) > 0.0

    def test_ranked_candidates_improve(self):
        analyzer = ProvisioningAnalyzer(chain_network(), chain_model())
        ranked = analyzer.rank_candidates()
        assert ranked
        for rec in ranked:
            assert rec.aggregate_bit_risk <= rec.baseline_bit_risk + 1e-6
            assert rec.fraction_of_baseline <= 1.0 + 1e-9

    def test_ranking_monotone(self):
        analyzer = ProvisioningAnalyzer(chain_network(), chain_model())
        ranked = analyzer.rank_candidates()
        totals = [r.aggregate_bit_risk for r in ranked]
        assert totals == sorted(totals)

    def test_top_ranked_link_bridges_the_detour(self):
        analyzer = ProvisioningAnalyzer(chain_network(), chain_model())
        (best,) = analyzer.rank_candidates(top=1)
        assert {best.candidate.pop_a, best.candidate.pop_b} == {
            "chain:a",
            "chain:d",
        }

    def test_ranking_empty_when_no_candidates(self):
        net = Network("tiny")
        net.add_pop(PoP("tiny:a", "A", GeoPoint(39.0, -100.0)))
        net.add_pop(PoP("tiny:b", "B", GeoPoint(39.0, -99.0)))
        net.add_link("tiny:a", "tiny:b")
        shares = {"tiny:a": 0.5, "tiny:b": 0.5}
        model = RiskModel(shares, dict.fromkeys(shares, 1e-3), dict.fromkeys(shares, 0.0))
        analyzer = ProvisioningAnalyzer(net, model)
        assert analyzer.rank_candidates(top=1) == []

    def test_via_edge_score_matches_recomputation(self):
        """The via-edge composition must match a full re-analysis after
        actually adding the link."""
        net = chain_network()
        model = chain_model()
        analyzer = ProvisioningAnalyzer(net, model)
        (best,) = analyzer.rank_candidates(top=1)
        augmented = net.copy()
        augmented.add_link(best.candidate.pop_a, best.candidate.pop_b)
        recomputed = baseline_total(augmented, model)
        assert best.aggregate_bit_risk == pytest.approx(recomputed, rel=0.02)

    def test_greedy_monotone_decay(self):
        analyzer = ProvisioningAnalyzer(chain_network(), chain_model())
        recs = analyzer.greedy_links(3)
        fractions = [r.fraction_of_baseline for r in recs]
        assert all(
            a >= b - 1e-9 for a, b in zip(fractions, fractions[1:])
        )
        assert fractions[0] < 1.0

    def test_greedy_invalid_count(self):
        analyzer = ProvisioningAnalyzer(chain_network(), chain_model())
        with pytest.raises(ValueError):
            analyzer.greedy_links(0)

    @pytest.mark.parametrize(
        "knob", [{"incremental": False}, {"verify_every": 1}]
    )
    def test_greedy_has_one_loop(self, knob):
        # No rebuild loop or verification pass to select: an unknown
        # keyword is a TypeError, never silently ignored.
        analyzer = ProvisioningAnalyzer(chain_network(), chain_model())
        with pytest.raises(TypeError):
            analyzer.greedy_links(2, **knob)

    @pytest.mark.parametrize("top", [0, -1])
    def test_rank_invalid_top(self, top):
        # A top below 1 is an error, not a silently truncated ranking.
        net, model = chain_network(), chain_model()
        with pytest.raises(ValueError):
            ProvisioningAnalyzer(net, model).rank_candidates(top=top)
        with pytest.raises(ValueError):
            RoutingSession(net, model).provision(top=top)

    def test_greedy_does_not_mutate_original(self):
        net = chain_network()
        analyzer = ProvisioningAnalyzer(net, chain_model())
        analyzer.greedy_links(2)
        assert net.link_count == 3


class TestBestPeering:
    def build_world(self):
        r = Network("R", tier="regional", states=("NY",))
        r.add_pop(PoP("R:nyc", "New York", GeoPoint(40.71, -74.01)))
        r.add_pop(PoP("R:alb", "Albany", GeoPoint(42.65, -73.76)))
        r.add_link("R:nyc", "R:alb")

        t = Network("T")
        t.add_pop(PoP("T:nyc", "New York", GeoPoint(40.72, -74.00)))
        t.add_pop(PoP("T:bos", "Boston", GeoPoint(42.36, -71.06)))
        t.add_link("T:nyc", "T:bos")

        u = Network("U", tier="regional", states=("MA",))
        u.add_pop(PoP("U:bos", "Boston", GeoPoint(42.37, -71.05)))
        u.add_pop(PoP("U:alb", "Albany", GeoPoint(42.66, -73.77)))
        u.add_link("U:bos", "U:alb")

        peering = PeeringGraph()
        peering.add_peering("R", "T")
        peering.add_peering("U", "T")
        topology = InterdomainTopology([r, t, u], peering)
        shares = {
            "R:nyc": 0.6, "R:alb": 0.4,
            "T:nyc": 0.5, "T:bos": 0.5,
            "U:bos": 0.7, "U:alb": 0.3,
        }
        model = RiskModel(
            shares, dict.fromkeys(shares, 1e-3), dict.fromkeys(shares, 0.0)
        )
        return topology, model

    def test_recommends_colocated_unpeered_network(self):
        topology, model = self.build_world()
        rec = best_new_peering(topology, model, "R")
        assert rec is not None
        assert rec.peer == "U"
        assert rec.fraction_of_baseline <= 1.0

    def test_none_when_no_candidates(self):
        topology, model = self.build_world()
        rec = best_new_peering(topology, model, "U")
        # U already peers with T; R is co-located at Albany -> candidate.
        assert rec is not None and rec.peer == "R"

    def test_unknown_network(self):
        topology, model = self.build_world()
        with pytest.raises(KeyError):
            best_new_peering(topology, model, "ghost")
