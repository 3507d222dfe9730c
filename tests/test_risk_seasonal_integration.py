"""Integration: seasonal risk + anticipatory forecasts through routing."""

import pytest

from repro.disasters.seasonal import seasonal_historical_model
from repro.forecast.projection import anticipatory_snapshots
from repro.forecast.storms import storm_advisories
from repro.risk.forecasted import ForecastedRiskModel
from repro.risk.model import RiskModel
from repro.session import RoutingSession
from repro.topology.zoo import network_by_name


class TestSeasonalRouting:
    @pytest.fixture(scope="class")
    def network(self):
        return network_by_name("Deutsche")

    def test_seasonal_models_route_validly(self, network):
        graph = network.distance_graph()
        for month in (2, 9):
            model = RiskModel.for_network(
                network,
                historical=seasonal_historical_model(month),
                gamma_h=1e6,
            )
            result = RoutingSession(graph, model).all_pairs()
            assert 0.0 <= result.risk_reduction_ratio < 1.0
            assert result.distance_increase_ratio >= 0.0

    def test_september_prices_gulf_higher(self, network):
        september = RiskModel.for_network(
            network, historical=seasonal_historical_model(9)
        )
        february = RiskModel.for_network(
            network, historical=seasonal_historical_model(2)
        )
        miami = "Deutsche:Miami, FL"
        assert september.historical_risk(miami) > february.historical_risk(
            miami
        )


class TestAnticipatoryRouting:
    def test_anticipatory_reroutes_before_reactive(self):
        """At a pre-landfall Sandy advisory, anticipatory o_f must give
        RiskRoute at least as much to avoid as the reactive field."""
        network = network_by_name("Tinet")
        graph = network.distance_graph()
        base = RiskModel.for_network(network)

        advisory = storm_advisories("Sandy")[40]  # storm still offshore
        from repro.forecast.risk import snapshot_from_advisory

        reactive_of = ForecastedRiskModel(
            [snapshot_from_advisory(advisory)]
        ).pop_risks(network)
        anticipatory_of = ForecastedRiskModel(
            anticipatory_snapshots(advisory)
        ).pop_risks(network)

        assert sum(anticipatory_of.values()) >= sum(reactive_of.values())

        reactive = RoutingSession(
            graph, base.with_forecast_risk(reactive_of)
        ).all_pairs()
        anticipatory = RoutingSession(
            graph, base.with_forecast_risk(anticipatory_of)
        ).all_pairs()
        # Both are valid ratio results; anticipatory sees >= exposure.
        assert anticipatory.risk_reduction_ratio >= 0.0
        assert reactive.risk_reduction_ratio >= 0.0

    def test_anticipatory_field_works_in_risk_model(self):
        network = network_by_name("NTT")
        base = RiskModel.for_network(network)
        advisory = storm_advisories("Irene")[50]
        of_map = ForecastedRiskModel(
            anticipatory_snapshots(advisory)
        ).pop_risks(network)
        model = base.with_forecast_risk(of_map)
        for pop_id in model.pop_ids():
            assert model.forecast_risk(pop_id) == of_map[pop_id]
