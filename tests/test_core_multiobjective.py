"""Tests for repro.core.multiobjective."""

import pytest

from repro.core.bitrisk import path_metrics
from repro.core.multiobjective import (
    LatencyModel,
    composite_route,
    pareto_paths,
)
from repro.session import RoutingSession
from repro.graph.shortest_path import NoPathError
from tests.conftest import build_diamond_model, build_diamond_network


@pytest.fixture
def world(diamond_network, diamond_model):
    return diamond_network.distance_graph(), diamond_model


class TestLatencyModel:
    def test_propagation(self):
        model = LatencyModel(fiber_miles_per_ms=124.0, per_hop_ms=0.0)
        assert model.path_latency_ms(1240.0, 3) == pytest.approx(10.0)

    def test_per_hop_budget(self):
        model = LatencyModel(fiber_miles_per_ms=124.0, per_hop_ms=0.5)
        assert model.path_latency_ms(0.0, 4) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyModel(fiber_miles_per_ms=0.0)
        with pytest.raises(ValueError):
            LatencyModel(per_hop_ms=-1.0)
        with pytest.raises(ValueError):
            LatencyModel().path_latency_ms(-1.0, 0)


class TestParetoPaths:
    def test_frontier_endpoints(self, world):
        graph, model = world
        frontier = pareto_paths(graph, model, "diamond:west", "diamond:east")
        assert len(frontier) >= 2
        # First entry: geographic shortest; last: minimum risk.
        distances = [p.distance_miles for p in frontier]
        risks = [p.risk_sum for p in frontier]
        assert distances == sorted(distances)
        assert risks == sorted(risks, reverse=True)

    def test_no_dominated_entries(self, world):
        graph, model = world
        frontier = pareto_paths(graph, model, "diamond:west", "diamond:east")
        for i, a in enumerate(frontier):
            for b in frontier[i + 1 :]:
                dominates = (
                    a.distance_miles <= b.distance_miles
                    and a.risk_sum <= b.risk_sum
                )
                assert not dominates

    def test_contains_both_extremes(self, world):
        graph, model = world
        session = RoutingSession(graph, model)
        frontier = pareto_paths(graph, model, "diamond:west", "diamond:east")
        shortest = session.shortest("diamond:west", "diamond:east")
        assert frontier[0].distance_miles == pytest.approx(shortest.bit_miles)
        risky = session.route("diamond:west", "diamond:east")
        best_risk = min(p.risk_sum for p in frontier)
        assert path_metrics(graph, list(risky.path), model).risk_sum >= (
            best_risk - 1e-9
        )

    def test_bit_risk_evaluation(self, world):
        graph, model = world
        frontier = pareto_paths(graph, model, "diamond:west", "diamond:east")
        for entry in frontier:
            metrics = path_metrics(graph, list(entry.path), model)
            alpha = metrics.alpha
            assert entry.bit_risk_miles(alpha) == pytest.approx(
                metrics.bit_risk_miles
            )

    def test_every_gamma_optimum_on_frontier(self, diamond_network):
        """For any gamma, the RiskRoute optimum must be a frontier point."""
        graph = diamond_network.distance_graph()
        for gamma in (0.0, 1e4, 1e5, 1e6, 1e7):
            model = build_diamond_model(gamma_h=gamma)
            frontier = pareto_paths(
                graph, model, "diamond:west", "diamond:east"
            )
            optimum = RoutingSession(graph, model).route(
                "diamond:west", "diamond:east"
            )
            assert optimum.path in [p.path for p in frontier]

    def test_unknown_node(self, world):
        graph, model = world
        from repro.graph.core import NodeNotFoundError

        with pytest.raises(NodeNotFoundError):
            pareto_paths(graph, model, "diamond:west", "nowhere")

    def test_disconnected(self, world):
        graph, model = world
        work = graph.copy()
        work.remove_edge("diamond:west", "diamond:north")
        work.remove_edge("diamond:west", "diamond:south")
        with pytest.raises(NoPathError):
            pareto_paths(work, model, "diamond:west", "diamond:east")


class TestCompositeRoute:
    def test_extremes(self, world):
        graph, model = world
        session = RoutingSession(graph, model)
        pure_sla = composite_route(
            graph, model, "diamond:west", "diamond:east", sla_weight=1.0
        )
        pure_risk = composite_route(
            graph, model, "diamond:west", "diamond:east", sla_weight=0.0
        )
        assert pure_sla.bit_miles <= pure_risk.bit_miles + 1e-6
        assert pure_risk.bit_risk_miles <= pure_sla.bit_risk_miles + 1e-6
        assert pure_risk.path == session.route(
            "diamond:west", "diamond:east"
        ).path

    def test_weight_validation(self, world):
        graph, model = world
        with pytest.raises(ValueError):
            composite_route(
                graph, model, "diamond:west", "diamond:east", sla_weight=1.5
            )

    def test_monotone_in_weight(self, world):
        graph, model = world
        miles = []
        for weight in (0.0, 0.5, 1.0):
            route = composite_route(
                graph, model, "diamond:west", "diamond:east", weight
            )
            miles.append(route.bit_miles)
        assert miles[0] >= miles[-1] - 1e-6
