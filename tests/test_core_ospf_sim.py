"""Tests for repro.core.ospf and repro.core.simulation."""

import pytest

from repro.core.ospf import MAX_OSPF_COST, export_ospf_weights, ospf_fidelity
from repro.core.simulation import (
    DAMAGE_RADIUS_MILES,
    SimulatedDisaster,
    failed_pops,
    route_survival,
    sample_disasters,
)
from repro.disasters.events import EventType
from repro.geo.coords import GeoPoint
from repro.topology.network import Network, PoP


class TestOspfExport:
    def test_costs_cover_all_links(self, diamond_network, diamond_model):
        table = export_ospf_weights(diamond_network, diamond_model)
        assert len(table.costs) == diamond_network.link_count
        for cost in table.costs.values():
            assert 1 <= cost <= MAX_OSPF_COST

    def test_riskier_link_costs_more(self, diamond_network, diamond_model):
        table = export_ospf_weights(diamond_network, diamond_model)
        # Same geometry, riskier endpoint: south links beat north links.
        north = table.costs[("diamond:north", "diamond:west")]
        south = table.costs[("diamond:south", "diamond:west")]
        assert south > north

    def test_as_graph_routes_risk_aware(self, diamond_network, diamond_model):
        from tests.conftest import shortest_path

        table = export_ospf_weights(diamond_network, diamond_model)
        path = shortest_path(
            table.as_graph(), "diamond:west", "diamond:east"
        )
        assert "diamond:south" not in path

    def test_empty_network_rejected(self, diamond_model):
        lonely = Network("lonely")
        lonely.add_pop(PoP("lonely:x", "X", GeoPoint(40.0, -100.0)))
        with pytest.raises(ValueError):
            export_ospf_weights(lonely, diamond_model)

    def test_fidelity_bounds(self, diamond_network, diamond_model):
        fidelity = ospf_fidelity(diamond_network, diamond_model, sample_pairs=6)
        assert fidelity >= 1.0 - 1e-9
        assert fidelity < 1.5

    def test_fidelity_validation(self, diamond_network, diamond_model):
        with pytest.raises(ValueError):
            ospf_fidelity(diamond_network, diamond_model, sample_pairs=0)


class TestDisasterSampling:
    def test_counts_and_radii(self):
        disasters = sample_disasters(100, seed=1)
        assert len(disasters) == 100
        for disaster in disasters:
            assert disaster.radius_miles == DAMAGE_RADIUS_MILES[
                disaster.event_type
            ]

    def test_deterministic(self):
        a = sample_disasters(30, seed=5)
        b = sample_disasters(30, seed=5)
        assert a == b

    def test_wind_dominates_unrestricted(self):
        disasters = sample_disasters(500, seed=3)
        wind = sum(
            1 for d in disasters if d.event_type == EventType.NOAA_WIND
        )
        assert wind / 500 > 0.6  # 143k of 176k events are wind

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_disasters(0)


class TestFailureInjection:
    def test_failed_pops_radius(self, diamond_network):
        disaster = SimulatedDisaster(
            EventType.FEMA_STORM, GeoPoint(37.0, -95.0), 50.0
        )
        failed = failed_pops(diamond_network, disaster)
        assert failed == {"diamond:south"}

    def test_no_failures_far_away(self, diamond_network):
        disaster = SimulatedDisaster(
            EventType.FEMA_STORM, GeoPoint(47.0, -70.0), 50.0
        )
        assert failed_pops(diamond_network, disaster) == set()

    def test_survival_prefers_riskroute(self, diamond_network, diamond_model):
        """Disasters at the risky transit PoP: RiskRoute (which avoids
        it) must survive at least as often as shortest path."""
        disasters = [
            SimulatedDisaster(
                EventType.FEMA_STORM, GeoPoint(37.0, -95.0), 60.0
            )
        ] * 3
        report = route_survival(
            diamond_network, diamond_model, disasters, sample_pairs=12
        )
        assert report.riskroute_survival >= report.shortest_survival
        assert 0.0 <= report.shortest_survival <= 1.0

    def test_survival_on_corpus_network(self, teliasonera, teliasonera_model):
        disasters = sample_disasters(150, seed=7)
        report = route_survival(
            teliasonera, teliasonera_model.with_gammas(1e6, 1e3), disasters
        )
        assert report.riskroute_survival >= report.shortest_survival - 0.01

    def test_survival_validation(self, diamond_network, diamond_model):
        with pytest.raises(ValueError):
            route_survival(diamond_network, diamond_model, [])
        with pytest.raises(ValueError):
            route_survival(
                diamond_network,
                diamond_model,
                sample_disasters(3),
                sample_pairs=0,
            )

    def test_all_survive_when_untouched(self, diamond_network, diamond_model):
        disasters = [
            SimulatedDisaster(
                EventType.NOAA_WIND, GeoPoint(48.0, -70.0), 10.0
            )
        ]
        report = route_survival(diamond_network, diamond_model, disasters)
        assert report.shortest_survival == 1.0
        assert report.riskroute_survival == 1.0
