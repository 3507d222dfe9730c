"""Tests for repro.traffic (gravity matrix + weighted evaluation)."""

import numpy as np
import pytest

from repro.session import RoutingSession
from repro.traffic.gravity import TrafficMatrix, gravity_matrix
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

    def test_population_products_dominate(self, teliasonera):
        matrix = gravity_matrix(teliasonera, beta=0.0)
        demands = np.triu(matrix.as_array(), 1)
        i, j = np.unravel_index(np.argmax(demands), demands.shape)
        top_pair = (matrix.pop_ids[i], matrix.pop_ids[j])
        # With beta=0 the top pair joins the two most-populous PoPs.
        from repro.population.assignment import network_population_shares

        shares = network_population_shares(teliasonera)
        ranked = sorted(teliasonera.pop_ids(), key=lambda p: -shares[p])
        assert set(top_pair) == set(ranked[:2])

    def test_distance_attenuation(self, teliasonera):
        near_sighted = gravity_matrix(teliasonera, beta=2.0)
        flat = gravity_matrix(teliasonera, beta=0.0)
        # NYC-Newark (9 miles apart) gains weight as beta grows.
        pair = ("Teliasonera:New York, NY", "Teliasonera:Newark, NJ")
        assert near_sighted.demand(*pair) > flat.demand(*pair)

    def test_validation(self, teliasonera):
        with pytest.raises(ValueError):
            gravity_matrix(teliasonera, beta=-1.0)
        with pytest.raises(ValueError):
            gravity_matrix(teliasonera, distance_floor_miles=0.0)


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
        self, b_risk, strategy
    ):
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
            strategy=strategy,
        )
        # a <-> b costs 0 miles, so both dr terms are 1.0.  b -> a also
        # costs 0 bit-risk miles (a is risk-free), so its rr term is
        # 1.0; a -> b keeps the direct link, whose ratio is 1.0 too.
        assert result.ratios.pair_count == 2
        assert result.ratios.distance_increase_ratio == 0.0
        assert result.ratios.risk_reduction_ratio == 0.0
        assert result.riskroute_volume == result.shortest_volume
