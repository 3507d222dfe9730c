"""Tests for repro.traffic (gravity matrix + weighted evaluation)."""

import numpy as np
import pytest

from repro.core.strategy import SweepStrategy
from repro.geo.coords import GeoPoint
from repro.geo.distance import haversine_miles
from repro.population.assignment import network_population_shares
from repro.session import RoutingSession
from repro.topology.network import Network, PoP
from repro.traffic.gravity import TrafficMatrix, gravity_matrix
from repro.traffic import weighted
from repro.traffic.weighted import traffic_weighted_ratios
from tests.conftest import build_zero_mile_world


class TestTrafficMatrix:
    def square(self):
        demands = np.array(
            [
                [0.0, 2.0, 1.0],
                [2.0, 0.0, 1.0],
                [1.0, 1.0, 0.0],
            ]
        )
        return TrafficMatrix(["a", "b", "c"], demands)

    def test_normalised(self):
        matrix = self.square()
        assert matrix.as_array().sum() == pytest.approx(1.0)
        assert matrix.demand("a", "b") == pytest.approx(0.25)

    def test_symmetry_required(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            TrafficMatrix(["a", "b"], bad)

    def test_self_demand_rejected(self):
        bad = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            TrafficMatrix(["a", "b"], bad)

    def test_negative_rejected(self):
        bad = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            TrafficMatrix(["a", "b"], bad)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            TrafficMatrix(["a", "b"], np.zeros((3, 3)))

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            TrafficMatrix(["a", "b"], np.zeros((2, 2)))

    def test_duplicate_ids_rejected(self):
        demands = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            TrafficMatrix(["a", "a"], demands)

    def test_unknown_pop(self):
        with pytest.raises(KeyError):
            self.square().demand("a", "zzz")

    def test_as_array_is_copy(self):
        matrix = self.square()
        arr = matrix.as_array()
        arr[0, 1] = 999.0
        assert matrix.demand("a", "b") == pytest.approx(0.25)


class TestGravity:
    def test_builds_for_corpus_network(self, teliasonera):
        matrix = gravity_matrix(teliasonera)
        assert matrix.as_array().sum() == pytest.approx(1.0)
        assert len(matrix.pop_ids) == teliasonera.pop_count

    def test_distance_attenuation(self, teliasonera):
        # Demand is c_i * c_j / max(d_ij, 50 miles): Newark (9 miles
        # from New York) sits on the floor, Seattle far beyond it.
        matrix = gravity_matrix(teliasonera)
        shares = network_population_shares(teliasonera)
        nyc, newark, seattle = (
            f"Teliasonera:{city}"
            for city in ("New York, NY", "Newark, NJ", "Seattle, WA")
        )
        miles = haversine_miles(
            teliasonera.pop(nyc).location, teliasonera.pop(seattle).location
        )
        assert matrix.demand(nyc, newark) / matrix.demand(
            nyc, seattle
        ) == pytest.approx(
            (shares[newark] / 50.0) / (shares[seattle] / miles), rel=1e-9
        )

    def test_validation(self):
        network = Network("solo")
        network.add_pop(PoP("solo:a", "A", GeoPoint(40.0, -100.0)))
        with pytest.raises(ValueError, match="two PoPs"):
            gravity_matrix(network)


class TestWeightedEvaluation:
    def test_weighted_ratios_on_diamond(self, diamond_network, diamond_model):
        session = RoutingSession(diamond_network, diamond_model)
        matrix = gravity_matrix(diamond_network)
        result = traffic_weighted_ratios(session, matrix)
        assert result.ratios.pair_count > 0
        assert 0.0 <= result.ratios.risk_reduction_ratio < 1.0
        assert result.volume_reduction >= 0.0

    def test_weighted_vs_uniform_differ(self, teliasonera, teliasonera_model):
        session = RoutingSession(
            teliasonera, teliasonera_model.with_gammas(1e6, 1e3)
        )
        uniform = session.all_pairs()
        weighted = traffic_weighted_ratios(session, gravity_matrix(teliasonera))
        # Same ballpark, but the weighting genuinely changes the answer.
        assert weighted.ratios.risk_reduction_ratio != pytest.approx(
            uniform.risk_reduction_ratio, abs=1e-4
        )
        assert (
            0.2
            < weighted.ratios.risk_reduction_ratio
            / max(uniform.risk_reduction_ratio, 1e-9)
            < 5.0
        )

    @pytest.mark.parametrize("strategy", ["exact", "per-source"])
    @pytest.mark.parametrize("b_risk", [0.0, 0.01])
    def test_zero_cost_shortest_path_counts_as_ratio_one(
        self, monkeypatch, b_risk, strategy
    ):
        # The size rule picks the strategy; networks above 60 PoPs run
        # per-source, so this three-node world stands in for one.
        monkeypatch.setattr(
            weighted, "auto_strategy", lambda _: SweepStrategy(strategy)
        )
        graph, model = build_zero_mile_world(b_risk)
        demands = np.array(
            [
                [0.0, 1.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],
            ]
        )
        result = traffic_weighted_ratios(
            RoutingSession(graph, model),
            TrafficMatrix(["a", "b", "c"], demands),
        )
        # a <-> b costs 0 miles, so both dr terms are 1.0.  b -> a also
        # costs 0 bit-risk miles (a is risk-free), so its rr term is
        # 1.0; a -> b keeps the direct link, whose ratio is 1.0 too.
        assert result.ratios.pair_count == 2
        assert result.ratios.distance_increase_ratio == 0.0
        assert result.ratios.risk_reduction_ratio == 0.0
        assert result.riskroute_volume == result.shortest_volume
