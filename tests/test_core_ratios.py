"""Tests for repro.core.ratios — Equations 5 and 6."""

import pytest

from repro.core.ratios import RatioResult, ratios_over_pairs
from repro.session import RoutingSession
from tests.conftest import build_diamond_model


@pytest.fixture
def session(diamond_network, diamond_model):
    return RoutingSession(diamond_network.distance_graph(), diamond_model)


class TestRatioResult:
    def test_negative_pairs_rejected(self):
        with pytest.raises(ValueError):
            RatioResult(0.1, 0.1, -1)


class TestRatiosOverPairs:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ratios_over_pairs([])

    def test_identity_routes_zero_ratios(self, session):
        """When RiskRoute picks the same paths, rr = dr = 0."""
        from repro.core.riskroute import PairRoutes

        base = session.shortest("diamond:west", "diamond:north")
        pair = PairRoutes(shortest=base, riskroute=base)
        result = ratios_over_pairs([pair])
        assert result.risk_reduction_ratio == pytest.approx(0.0)
        assert result.distance_increase_ratio == pytest.approx(0.0)
        assert result.pair_count == 1

    def test_aggregation(self, session):
        pairs = [
            session.pair("diamond:west", "diamond:east"),
            session.pair("diamond:north", "diamond:south"),
        ]
        result = ratios_over_pairs(pairs)
        assert result.pair_count == 2
        mean_risk = sum(p.risk_ratio for p in pairs) / 2
        assert result.risk_reduction_ratio == pytest.approx(1 - mean_risk)


class TestIntradomainRatios:
    def test_all_pairs(self, session):
        result = session.all_pairs()
        assert result.pair_count == 12  # 4 * 3 ordered pairs
        assert 0.0 <= result.risk_reduction_ratio < 1.0
        assert result.distance_increase_ratio >= 0.0

    def test_riskroute_reduces_risk_on_diamond(self, session):
        result = session.all_pairs()
        assert result.risk_reduction_ratio > 0.0

    def test_restricted_sources(self, session):
        result = session.all_pairs(sources=["diamond:west"])
        assert result.pair_count == 3

    def test_restricted_targets(self, session):
        result = session.all_pairs(
            sources=["diamond:west"], targets=["diamond:east"]
        )
        assert result.pair_count == 1

    def test_exact_vs_approx_consistent(self, session):
        exact = session.all_pairs(strategy="exact")
        approx = session.all_pairs(strategy="per-source")
        assert approx.risk_reduction_ratio == pytest.approx(
            exact.risk_reduction_ratio, abs=0.05
        )

    def test_gamma_monotonicity(self, diamond_network):
        """Larger gamma_h must not reduce rr or dr (more risk-averse)."""
        graph = diamond_network.distance_graph()
        results = []
        for gamma in (0.0, 1e5, 1e6):
            model = build_diamond_model(gamma_h=gamma)
            results.append(RoutingSession(graph, model).all_pairs())
        assert results[0].risk_reduction_ratio == pytest.approx(0.0)
        assert (
            results[0].risk_reduction_ratio
            <= results[1].risk_reduction_ratio
            <= results[2].risk_reduction_ratio + 1e-9
        )
        assert (
            results[0].distance_increase_ratio
            <= results[2].distance_increase_ratio + 1e-9
        )

    def test_corpus_network(self, teliasonera, teliasonera_model):
        session = RoutingSession(
            teliasonera.distance_graph(), teliasonera_model
        )
        result = session.all_pairs()
        assert result.pair_count == 15 * 14
        assert 0.0 < result.risk_reduction_ratio < 0.5
        assert 0.0 <= result.distance_increase_ratio < 0.5
