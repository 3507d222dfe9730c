"""Tests for repro.core.riskroute — Equation 3."""

import pytest

from repro.session import RoutingSession
from repro.core.strategy import SweepStrategy
from repro.graph.core import NodeNotFoundError
from tests.conftest import build_diamond_model
from tests.oracles import risk_dijkstra


@pytest.fixture
def session(diamond_network, diamond_model):
    return RoutingSession(diamond_network.distance_graph(), diamond_model)


class TestShortestPath:
    def test_baseline_route(self, session):
        route = session.shortest("diamond:west", "diamond:east")
        assert route.path[0] == "diamond:west"
        assert route.path[-1] == "diamond:east"
        assert len(route.path) == 3

    def test_metrics_populated(self, session):
        route = session.shortest("diamond:west", "diamond:east")
        assert route.bit_miles > 0
        assert route.bit_risk_miles >= route.bit_miles


class TestRiskRoute:
    def test_avoids_risky_transit(self, session):
        route = session.route("diamond:west", "diamond:east")
        assert "diamond:south" not in route.path
        assert "diamond:north" in route.path

    def test_risk_route_never_worse_in_bit_risk(self, session):
        pair = session.pair("diamond:west", "diamond:east")
        assert (
            pair.riskroute.bit_risk_miles
            <= pair.shortest.bit_risk_miles + 1e-9
        )

    def test_shortest_never_worse_in_miles(self, session):
        pair = session.pair("diamond:west", "diamond:east")
        assert pair.shortest.bit_miles <= pair.riskroute.bit_miles + 1e-9

    def test_zero_gamma_equals_shortest(self, diamond_network):
        model = build_diamond_model(gamma_h=0.0, gamma_f=0.0)
        session = RoutingSession(diamond_network.distance_graph(), model)
        pair = session.pair("diamond:west", "diamond:east")
        assert pair.riskroute.bit_miles == pytest.approx(
            pair.shortest.bit_miles
        )

    def test_target_risk_unavoidable(self, diamond_network):
        """Adjacent pair: the only lever is transit risk; target risk is
        always charged."""
        model = build_diamond_model()
        session = RoutingSession(diamond_network.distance_graph(), model)
        route = session.route("diamond:west", "diamond:south")
        # Direct link is optimal: detours add risk without removing the
        # target charge.
        assert route.path == ("diamond:west", "diamond:south")

    def test_disconnected_raises(self, diamond_network, diamond_model):
        graph = diamond_network.distance_graph()
        graph.add_node("island")
        model = diamond_model  # island not in the model
        with pytest.raises(Exception):
            RoutingSession(graph, model)

    def test_pair_ratios(self, session):
        pair = session.pair("diamond:west", "diamond:east")
        assert 0.0 < pair.risk_ratio <= 1.0
        assert pair.distance_ratio >= 1.0


class TestSweeps:
    def test_shortest_from_covers_all(self, session):
        routes = session.shortest_from("diamond:west")
        assert set(routes) == {"diamond:north", "diamond:south", "diamond:east"}

    def test_exact_sweep_matches_single_pair(self, session):
        sweep = session.routes_from("diamond:west", strategy="exact")
        single = session.route("diamond:west", "diamond:east")
        assert sweep["diamond:east"].path == single.path

    def test_approx_sweep_costs_are_exact_for_chosen_paths(self, session):
        from repro.core.bitrisk import path_metrics

        sweep = session.routes_from("diamond:west", strategy="per-source")
        for target, route in sweep.items():
            recomputed = path_metrics(
                session.graph, list(route.path), session.model
            )
            assert route.bit_risk_miles == pytest.approx(
                recomputed.bit_risk_miles
            )

    def test_approx_close_to_exact_on_diamond(self, session):
        exact = session.routes_from("diamond:west", strategy="exact")
        approx = session.routes_from(
            "diamond:west", strategy="per-source"
        )
        for target in exact:
            assert approx[target].bit_risk_miles <= exact[
                target
            ].bit_risk_miles * 1.10


class TestRiskDijkstraCoverage:
    def test_missing_risk_raises_node_not_found(self, diamond_network):
        """A risk mapping that misses a reachable node must fail with a
        clear NodeNotFoundError, not a bare KeyError."""
        graph = diamond_network.distance_graph()
        node_risk = {n: 1e-3 for n in graph.nodes()}
        del node_risk["diamond:south"]
        with pytest.raises(NodeNotFoundError, match="diamond:south"):
            risk_dijkstra(graph, node_risk, 0.5, "diamond:west")

    def test_full_coverage_still_works(self, diamond_network):
        graph = diamond_network.distance_graph()
        node_risk = {n: 1e-3 for n in graph.nodes()}
        dist, parent = risk_dijkstra(graph, node_risk, 0.5, "diamond:west")
        assert set(dist) == set(graph.nodes())


class TestStrategyShim:
    """routes_from takes strategy=; the exact= bool shim is gone."""

    def test_enum_accepted(self, session):
        routes = session.routes_from(
            "diamond:west", strategy=SweepStrategy.EXACT
        )
        single = session.route("diamond:west", "diamond:east")
        assert routes["diamond:east"].path == single.path

    def test_unknown_strategy_raises(self, session):
        with pytest.raises(ValueError):
            session.routes_from("diamond:west", strategy="bogus")


class TestIntegrationCorpus:
    def test_teliasonera_route(self, teliasonera, teliasonera_model):
        session = RoutingSession(
            teliasonera.distance_graph(), teliasonera_model
        )
        pair = session.pair(
            "Teliasonera:Miami, FL", "Teliasonera:Seattle, WA"
        )
        assert pair.riskroute.bit_risk_miles <= pair.shortest.bit_risk_miles
        assert pair.shortest.bit_miles <= pair.riskroute.bit_miles
