"""Tests for repro.core.characteristics — Table 3 machinery."""

import pytest

from repro.core.characteristics import (
    CHARACTERISTIC_NAMES,
    NetworkCharacteristics,
    characteristic_r_squared,
    characteristics_of,
)
from repro.topology.peering import PeeringGraph


def make_features(count=5):
    out = []
    for i in range(count):
        out.append(
            NetworkCharacteristics(
                network=f"n{i}",
                geographic_footprint=100.0 * (i + 1),
                average_pop_risk=0.01,
                average_outdegree=2.5,
                pop_count=10 + i,
                link_count=12 + i,
                peer_count=2,
            )
        )
    return out


class TestCharacteristics:
    def test_value_lookup(self):
        features = make_features(1)[0]
        assert features.value("geographic_footprint") == 100.0
        assert features.value("pop_count") == 10.0

    def test_unknown_characteristic(self):
        with pytest.raises(KeyError):
            make_features(1)[0].value("coolness")

    def test_characteristics_of(self, diamond_network, diamond_model):
        peering = PeeringGraph()
        peering.add_peering("diamond", "other")
        features = characteristics_of(diamond_network, diamond_model, peering)
        assert features.network == "diamond"
        assert features.pop_count == 4
        assert features.link_count == 4
        assert features.average_outdegree == pytest.approx(2.0)
        assert features.peer_count == 1
        assert features.geographic_footprint > 0
        assert features.average_pop_risk > 0


class TestRSquared:
    def test_perfect_linear_outcome(self):
        features = make_features()
        outcomes = {f.network: f.geographic_footprint * 0.001 for f in features}
        r2 = characteristic_r_squared(features, outcomes)
        assert r2["geographic_footprint"] == pytest.approx(1.0)
        # pop_count is also linear in i here, so it correlates too; the
        # constant characteristics must not.
        assert r2["average_outdegree"] == 0.0
        assert r2["peer_count"] == 0.0

    def test_all_characteristics_reported(self):
        features = make_features()
        outcomes = {f.network: 0.1 for f in features}
        r2 = characteristic_r_squared(features, outcomes)
        assert set(r2) == set(CHARACTERISTIC_NAMES)

    def test_missing_networks_skipped(self):
        features = make_features()
        outcomes = {"n0": 0.1, "n1": 0.2, "n2": 0.3}
        r2 = characteristic_r_squared(features, outcomes)
        assert set(r2) == set(CHARACTERISTIC_NAMES)

    def test_too_few_networks(self):
        features = make_features(2)
        outcomes = {f.network: 0.1 for f in features}
        with pytest.raises(ValueError):
            characteristic_r_squared(features, outcomes)
