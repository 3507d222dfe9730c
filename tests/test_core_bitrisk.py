"""Tests for repro.core.bitrisk — Equation 1."""

import pytest

from repro.core.bitrisk import path_metrics


@pytest.fixture
def graph(diamond_network):
    return diamond_network.distance_graph()


class TestPathMetrics:
    def test_empty_path_rejected(self, graph, diamond_model):
        with pytest.raises(ValueError):
            path_metrics(graph, [], diamond_model)

    def test_single_node_path(self, graph, diamond_model):
        metrics = path_metrics(graph, ["diamond:west"], diamond_model)
        assert metrics.distance_miles == 0.0
        assert metrics.risk_sum == 0.0
        assert metrics.bit_risk_miles == 0.0
        assert metrics.alpha == pytest.approx(0.6)  # c_west + c_west

    def test_source_risk_not_charged(self, graph, diamond_model):
        """Equation 1 sums x = 2..K: the source PoP is free."""
        path = ["diamond:west", "diamond:north", "diamond:east"]
        metrics = path_metrics(graph, path, diamond_model)
        expected_risk = diamond_model.node_risk(
            "diamond:north"
        ) + diamond_model.node_risk("diamond:east")
        assert metrics.risk_sum == pytest.approx(expected_risk)

    def test_distance_matches_graph(self, graph, diamond_model):
        path = ["diamond:west", "diamond:north", "diamond:east"]
        metrics = path_metrics(graph, path, diamond_model)
        assert metrics.distance_miles == pytest.approx(graph.path_weight(path))

    def test_alpha_from_endpoints(self, graph, diamond_model):
        path = ["diamond:west", "diamond:north", "diamond:east"]
        metrics = path_metrics(graph, path, diamond_model)
        assert metrics.alpha == pytest.approx(0.6)  # 0.3 + 0.3

    def test_equation1_composition(self, graph, diamond_model):
        path = ["diamond:west", "diamond:south", "diamond:east"]
        metrics = path_metrics(graph, path, diamond_model)
        assert metrics.bit_risk_miles == pytest.approx(
            metrics.distance_miles + metrics.alpha * metrics.risk_sum
        )

    def test_riskier_transit_costs_more(self, graph, diamond_model):
        north = path_metrics(
            graph, ["diamond:west", "diamond:north", "diamond:east"], diamond_model
        )
        south = path_metrics(
            graph, ["diamond:west", "diamond:south", "diamond:east"], diamond_model
        )
        # The south corridor is slightly shorter but far riskier.
        assert south.distance_miles < north.distance_miles
        assert south.bit_risk_miles > north.bit_risk_miles

    def test_broken_path_rejected(self, graph, diamond_model):
        with pytest.raises(KeyError):
            path_metrics(
                graph, ["diamond:west", "diamond:east"], diamond_model
            )


class TestConvenience:
    def test_bit_miles(self, graph, diamond_model):
        path = ["diamond:west", "diamond:north", "diamond:east"]
        metrics = path_metrics(graph, path, diamond_model)
        assert metrics.distance_miles == pytest.approx(graph.path_weight(path))

    def test_bit_risk_miles(self, graph, diamond_model):
        # Equation 1: miles plus the pair impact times the risk of every
        # PoP after the source.
        path = ["diamond:west", "diamond:north", "diamond:east"]
        risk = sum(diamond_model.node_risk(pop) for pop in path[1:])
        alpha = diamond_model.impact(path[0], path[-1])
        assert path_metrics(graph, path, diamond_model).bit_risk_miles == (
            pytest.approx(graph.path_weight(path) + alpha * risk)
        )
