"""Tests for repro.core.monitoring."""

import pytest

from repro.core.monitoring import coverage_of, place_monitors


class TestPlacement:
    def test_single_monitor_covers_its_region(
        self, diamond_network, diamond_model
    ):
        placement = place_monitors(
            diamond_network, diamond_model, 1, radius_miles=200.0
        )
        assert len(placement.monitors) == 1
        assert placement.covered_risk > 0.0
        assert placement.covered_risk <= placement.total_risk + 1e-12

    def test_greedy_picks_riskiest_region_first(
        self, diamond_network, diamond_model
    ):
        placement = place_monitors(
            diamond_network, diamond_model, 1, radius_miles=100.0
        )
        # The south PoP carries 50x the risk of everything else.
        assert placement.monitors[0] == "diamond:south"

    def test_coverage_curve_monotone(self, diamond_network, diamond_model):
        placement = place_monitors(
            diamond_network, diamond_model, 4, radius_miles=150.0
        )
        curve = list(placement.coverage_curve)
        assert curve == sorted(curve)
        assert placement.coverage_fraction <= 1.0 + 1e-12

    def test_full_coverage_with_enough_monitors(
        self, diamond_network, diamond_model
    ):
        placement = place_monitors(
            diamond_network, diamond_model, 4, radius_miles=100.0
        )
        assert placement.coverage_fraction == pytest.approx(1.0)

    def test_stops_when_nothing_to_gain(self, diamond_network, diamond_model):
        placement = place_monitors(
            diamond_network, diamond_model, 10, radius_miles=5000.0
        )
        # One monitor sees everything; greedy stops after it.
        assert len(placement.monitors) == 1

    def test_validation(self, diamond_network, diamond_model):
        with pytest.raises(ValueError):
            place_monitors(diamond_network, diamond_model, 0)
        with pytest.raises(ValueError):
            place_monitors(diamond_network, diamond_model, 1, radius_miles=0.0)


class TestCoverageOf:
    def test_explicit_set(self, diamond_network, diamond_model):
        covered = coverage_of(
            diamond_network,
            diamond_model,
            ["diamond:south"],
            radius_miles=100.0,
        )
        assert covered == pytest.approx(
            diamond_model.historical_risk("diamond:south"), rel=1e-9
        )

    def test_unknown_monitor(self, diamond_network, diamond_model):
        with pytest.raises(KeyError):
            coverage_of(diamond_network, diamond_model, ["ghost"])

    def test_greedy_beats_or_ties_naive(self, teliasonera, teliasonera_model):
        """Greedy placement must beat monitoring the first-k PoPs."""
        k = 3
        placement = place_monitors(teliasonera, teliasonera_model, k)
        naive = coverage_of(
            teliasonera, teliasonera_model, teliasonera.pop_ids()[:k]
        )
        assert placement.covered_risk >= naive - 1e-12
