"""End-to-end integration tests over the real corpus.

These exercise the full pipeline — topology, census assignment, disaster
KDEs, forecast parsing, routing, ratios, provisioning — on the smaller
corpus networks, asserting the paper's qualitative shapes.
"""

import pytest

from repro.core.interdomain import InterdomainRouter, regional_pair_population
from repro.core.provisioning import ProvisioningAnalyzer, best_new_peering
from repro.forecast.advisory import advisory_text
from repro.forecast.risk import snapshot_from_text
from repro.forecast.storms import storm_advisories
from repro.risk.forecasted import ForecastedRiskModel
from repro.risk.model import RiskModel
from repro.session import RoutingSession
from repro.topology.interdomain import InterdomainTopology
from repro.topology.peering import corpus_peering
from repro.topology.zoo import network_by_name, regional_networks


@pytest.fixture(scope="module")
def deutsche_session():
    network = network_by_name("Deutsche")
    model = RiskModel.for_network(network)
    return network, model, RoutingSession(network.distance_graph(), model)


class TestTable2Shape:
    def test_gamma_monotonicity_on_deutsche(self, deutsche_session):
        network, model, _ = deutsche_session
        graph = network.distance_graph()
        r5 = RoutingSession(graph, model).all_pairs()
        r6 = RoutingSession(graph, model.with_gammas(1e6, 1e3)).all_pairs()
        assert r6.risk_reduction_ratio >= r5.risk_reduction_ratio
        assert r6.distance_increase_ratio >= r5.distance_increase_ratio
        assert r5.risk_reduction_ratio > 0.0

    def test_ratios_in_sane_range(self, deutsche_session):
        _, _, session = deutsche_session
        result = session.all_pairs()
        assert 0.0 < result.risk_reduction_ratio < 0.6
        assert 0.0 <= result.distance_increase_ratio < 0.6


class TestForecastResponse:
    def test_storm_raises_risk_ratio(self):
        """A hurricane over transit PoPs must increase the measurable
        benefit of RiskRoute for an affected network.  Tinet's east-coast
        corridor nodes carry transit traffic, so Irene's mid-track
        advisories (Carolinas/Virginia in scope) create avoidable risk."""
        network = network_by_name("Tinet")
        model = RiskModel.for_network(network)
        graph = network.distance_graph()
        calm = RoutingSession(graph, model).all_pairs()

        mid_track = storm_advisories("Irene")[55]
        snapshot = snapshot_from_text(advisory_text(mid_track))
        forecast = ForecastedRiskModel([snapshot])
        stormy_model = model.with_forecast_risk(forecast.pop_risks(network))
        stormy = RoutingSession(graph, stormy_model).all_pairs()
        assert stormy.risk_reduction_ratio > calm.risk_reduction_ratio

    def test_forecast_risk_zero_before_storm_reaches_us(
        self, deutsche_session
    ):
        network, _, _ = deutsche_session
        early = storm_advisories("Sandy")[0]
        snapshot = snapshot_from_text(advisory_text(early))
        forecast = ForecastedRiskModel([snapshot])
        risks = forecast.pop_risks(network)
        assert all(v == 0.0 for v in risks.values())


class TestProvisioningShape:
    def test_greedy_decay_on_sprint(self):
        network = network_by_name("Sprint")
        analyzer = ProvisioningAnalyzer(network, RiskModel.for_network(network))
        recs = analyzer.greedy_links(3)
        assert len(recs) == 3
        fractions = [r.fraction_of_baseline for r in recs]
        assert fractions[0] < 1.0
        assert fractions == sorted(fractions, reverse=True)


class TestInterdomainShape:
    @pytest.fixture(scope="class")
    def world(self):
        networks = [
            network_by_name(n)
            for n in ("Level3", "Sprint", "ATT", "Tinet", "Digex", "Epoch")
        ]
        topology = InterdomainTopology(networks, corpus_peering())
        model = RiskModel.for_interdomain(topology)
        return topology, model

    def test_regional_ratios(self, world):
        topology, model = world
        router = InterdomainRouter(topology, model)
        destinations = regional_pair_population(topology)
        result = router.regional_ratios("Digex", destinations)
        assert result.pair_count > 0
        assert 0.0 <= result.risk_reduction_ratio < 0.8

    def test_best_peering_suggests_unpeered_tier1(self, world):
        topology, model = world
        rec = best_new_peering(topology, model, "Digex")
        assert rec is not None
        # Digex peers with Level3 + Deutsche; ATT/Tinet are candidates.
        assert rec.peer in ("ATT", "Tinet", "Sprint", "Epoch")
        assert rec.fraction_of_baseline <= 1.0


class TestCorpusSanity:
    def test_regional_models_build(self):
        for network in regional_networks()[:4]:
            model = RiskModel.for_network(network)
            assert sum(model.share(p) for p in model.pop_ids()) == pytest.approx(
                1.0
            )

    def test_tier1_risk_spread(self):
        """Historical risk must vary across a nationwide footprint, or
        risk-aware routing would be pointless."""
        network = network_by_name("Tinet")
        model = RiskModel.for_network(network)
        risks = [model.historical_risk(p) for p in model.pop_ids()]
        assert max(risks) > 3.0 * min(risks)
