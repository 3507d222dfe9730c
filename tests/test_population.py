"""Tests for repro.population (census + assignment)."""

import numpy as np
import pytest

from repro.geo.coords import CONTINENTAL_US, BoundingBox, GeoPoint
from repro.geo.regions import Region, states_region
from repro.population.assignment import (
    assign_population,
    network_population_shares,
)
from repro.population.census import CensusData, synthetic_census
from repro.topology.network import Network, PoP


def tiny_census() -> CensusData:
    """Five blocks: four near Chicago, one near Denver."""
    lat = np.array([41.9, 41.8, 41.7, 42.0, 39.7])
    lon = np.array([-87.6, -87.7, -87.5, -87.6, -105.0])
    population = np.array([100.0, 100.0, 100.0, 100.0, 400.0])
    return CensusData(lat, lon, population)


def two_pop_network() -> Network:
    net = Network("t")
    net.add_pop(PoP("t:chi", "Chicago", GeoPoint(41.88, -87.63)))
    net.add_pop(PoP("t:den", "Denver", GeoPoint(39.74, -104.98)))
    return net


class TestCensusData:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CensusData(np.zeros(3), np.zeros(2), np.zeros(3))

    def test_negative_population_rejected(self):
        with pytest.raises(ValueError):
            CensusData(np.zeros(1), np.zeros(1), np.array([-1.0]))

    def test_totals(self):
        census = tiny_census()
        assert census.block_count == 5
        assert census.total_population == 800.0

    def test_restricted_to_region(self):
        census = tiny_census()
        illinois = census.restricted_to(states_region(["IL"]))
        assert illinois.block_count == 4
        assert illinois.total_population == 400.0


class TestSyntheticCensus:
    def test_paper_block_count(self):
        census = synthetic_census()
        assert census.block_count == 215_932

    def test_all_blocks_in_continental_us(self):
        census = synthetic_census()
        assert census.lat.min() >= CONTINENTAL_US.south
        assert census.lat.max() <= CONTINENTAL_US.north
        assert census.lon.min() >= CONTINENTAL_US.west
        assert census.lon.max() <= CONTINENTAL_US.east

    def test_cached(self):
        assert synthetic_census() is synthetic_census()

    def test_big_cities_dominate(self):
        census = synthetic_census()
        nyc_region = census.restricted_to(
            Region("nyc", (BoundingBox(40.0, -75.0, 41.5, -73.0),))
        )
        wyoming = census.restricted_to(states_region(["WY"]))
        assert nyc_region.total_population > wyoming.total_population


class TestAssignment:
    def test_shares_sum_to_one(self):
        result = assign_population(tiny_census(), two_pop_network())
        assert sum(result.values()) == pytest.approx(1.0)

    def test_nearest_neighbor_split(self):
        result = assign_population(tiny_census(), two_pop_network())
        assert result == {"t:chi": 0.5, "t:den": 0.5}

    def test_impact_is_share_sum(self):
        result = assign_population(tiny_census(), two_pop_network())
        assert result["t:chi"] + result["t:den"] == pytest.approx(1.0)

    def test_population_of(self):
        census = tiny_census()
        result = assign_population(census, two_pop_network())
        served = result["t:chi"] * census.total_population
        assert served == pytest.approx(400.0)

    def test_unknown_pop(self):
        result = assign_population(tiny_census(), two_pop_network())
        with pytest.raises(KeyError):
            result["t:ghost"]

    def test_no_pops_rejected(self):
        with pytest.raises(ValueError):
            assign_population(tiny_census(), Network("empty"))


class TestNetworkShares:
    def test_regional_confined_to_footprint(self, teliasonera):
        census = synthetic_census()
        # Build a small regional net in Texas only.
        net = Network("tex", tier="regional", states=("TX",))
        net.add_pop(PoP("tex:hou", "Houston", GeoPoint(29.76, -95.37)))
        net.add_pop(PoP("tex:dal", "Dallas", GeoPoint(32.78, -96.80)))
        result = network_population_shares(net)
        assert sum(result.values()) == pytest.approx(1.0)
        texas = census.restricted_to(states_region(["TX"]))
        assert result == assign_population(texas, net)
        # Texas population is far less than the national total.
        assert texas.total_population < census.total_population * 0.2

    def test_tier1_uses_full_population(self, teliasonera):
        census = synthetic_census()
        result = network_population_shares(teliasonera)
        assert result == assign_population(census, teliasonera)
