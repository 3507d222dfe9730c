"""Tests for repro.core.sharedrisk."""

import math

import pytest

from repro.core.sharedrisk import shared_risk_report
from repro.geo.coords import GeoPoint
from repro.risk.historical import HistoricalRiskModel
from repro.stats.kde import GaussianKDE, points_to_array
from repro.topology.network import Network, PoP


def _net(name, cities):
    net = Network(name)
    for key, (lat, lon) in cities.items():
        net.add_pop(PoP(f"{name}:{key}", key, GeoPoint(lat, lon)))
    keys = list(cities)
    for a, b in zip(keys, keys[1:]):
        net.add_link(f"{name}:{a}", f"{name}:{b}")
    return net


EAST = {"nyc": (40.71, -74.01), "philly": (39.95, -75.17), "dc": (38.91, -77.04)}
WEST = {"la": (34.05, -118.24), "sf": (37.77, -122.42), "sea": (47.61, -122.33)}


def flat_historical():
    events = [GeoPoint(lat, lon) for lat in (35.0, 40.0, 45.0) for lon in (-120.0, -95.0, -75.0)]
    return HistoricalRiskModel(
        {"storm": GaussianKDE(points_to_array(events), 800.0)}
    )


class TestSharedRiskReport:
    def test_disjoint_networks_diversified(self):
        east = _net("East", EAST)
        west = _net("West", WEST)
        report = shared_risk_report(east, west, flat_historical())
        assert report.colocation_fraction_a == 0.0
        assert report.colocation_fraction_b == 0.0
        assert report.risk_profile_divergence > 0.3
        assert report.diversification_score > 0.3

    def test_identical_networks_fully_shared(self):
        east = _net("EastA", EAST)
        twin = _net("EastB", EAST)
        report = shared_risk_report(east, twin, flat_historical())
        assert report.colocation_fraction_a == 1.0
        assert report.colocation_fraction_b == 1.0
        assert report.risk_profile_divergence == pytest.approx(0.0, abs=1e-9)
        assert report.diversification_score == pytest.approx(0.0, abs=1e-9)
        assert report.shared_metro_risk == pytest.approx(1.0)

    def test_divergence_bounded(self):
        east = _net("East", EAST)
        west = _net("West", WEST)
        report = shared_risk_report(east, west, flat_historical())
        assert 0.0 <= report.risk_profile_divergence <= math.log(2.0) + 1e-9

    def test_corpus_networks(self, teliasonera):
        from repro.topology.zoo import network_by_name

        report = shared_risk_report(teliasonera, network_by_name("NTT"))
        # Heavy metro overlap between two nationwide tier-1s.
        assert report.colocation_fraction_a > 0.5
        assert report.shared_metro_risk > 0.3
