"""Cascade simulator: degeneracy, defense knob, conservation.

The load-bearing contract is the degenerate case: with unlimited
capacity the cascade adds nothing to the initial damage, and survival
over the shared route sample reduces *exactly* to
:func:`repro.core.simulation.route_survival` — same pair enumeration,
same stride, same damage arithmetic, so the rates match bit for bit.
"""

from __future__ import annotations

import pytest

from repro.core.simulation import (
    SimulatedDisaster,
    failed_pops,
    route_survival,
    sampled_pair_routes,
)
from repro.engine import RoutingEngine
from repro.geo.coords import GeoPoint
from repro.scenario import CascadeConfig, CascadeSimulator
from tests.conftest import build_diamond_model, build_diamond_network

SAMPLE_PAIRS = 10


@pytest.fixture(scope="module")
def simulator():
    return CascadeSimulator(
        build_diamond_network(), build_diamond_model(),
        sample_pairs=SAMPLE_PAIRS,
    )


class TestDegeneracy:
    def test_reduces_exactly_to_route_survival(self, simulator):
        """Unlimited capacity + disasters == core route_survival."""
        network = build_diamond_network()
        model = build_diamond_model()
        # Hand-placed footprints: single PoPs, a two-PoP corridor hit,
        # and one harmless mid-Atlantic event (skipped by both paths).
        disasters = [
            SimulatedDisaster("fema_hurricane", GeoPoint(37.0, -95.0), 90.0),
            SimulatedDisaster("fema_tornado", GeoPoint(41.5, -95.0), 25.0),
            SimulatedDisaster("noaa_wind", GeoPoint(39.0, -100.0), 15.0),
            SimulatedDisaster("noaa_earthquake", GeoPoint(39.2, -95.0), 250.0),
            SimulatedDisaster("fema_storm", GeoPoint(35.0, -60.0), 40.0),
        ]
        config = CascadeConfig(headroom=None, redistribute=False)

        hits = {"shortest": 0, "riskroute": 0}
        trials = 0
        for disaster in disasters:
            failed = failed_pops(network, disaster)
            if not failed:
                continue
            for policy in ("shortest", "riskroute"):
                result = simulator.run(failed, (), policy, config)
                assert result.depth == 0
                assert result.overload_trips == 0
                assert set(result.failed_pops) == failed
                hits[policy] += result.route_hits
            trials += result.route_trials

        report = route_survival(
            network, model, disasters, sample_pairs=SAMPLE_PAIRS
        )
        assert trials > 0
        assert hits["shortest"] / trials == report.shortest_survival
        assert hits["riskroute"] / trials == report.riskroute_survival

    def test_unlimited_capacity_never_trips(self, simulator):
        result = simulator.run(
            ["diamond:south"], (), "riskroute",
            CascadeConfig(headroom=None),
        )
        assert result.failed_pops == ("diamond:south",)
        assert result.depth == 0
        assert not result.partitioned


class TestDefenseKnob:
    def test_redistribution_arrests_cascade(self, simulator):
        tight = dict(headroom=1.1, alternates=2)
        defended = simulator.run(
            ["diamond:west"], (), "riskroute",
            CascadeConfig(redistribute=True, **tight),
        )
        naive = simulator.run(
            ["diamond:west"], (), "riskroute",
            CascadeConfig(redistribute=False, **tight),
        )
        assert defended.depth < naive.depth

    def test_runs_are_independent(self, simulator):
        first = simulator.run(["diamond:south"], (), "riskroute")
        second = simulator.run(["diamond:south"], (), "riskroute")
        assert first == second


class TestCascadeMechanics:
    def test_no_damage_is_a_fixpoint(self, simulator):
        result = simulator.run((), (), "shortest")
        assert result.depth == 0
        assert result.failed_pops == ()
        assert result.failed_links == ()
        assert result.served_demand == pytest.approx(1.0)
        assert result.route_hits == result.route_trials
        assert not result.partitioned

    def test_pop_failure_kills_incident_links(self, simulator):
        result = simulator.run(
            ["diamond:south"], (), "shortest",
            CascadeConfig(headroom=None),
        )
        assert set(result.failed_links) == {
            ("diamond:east", "diamond:south"),
            ("diamond:south", "diamond:west"),
        }

    def test_link_failure_leaves_pops_up(self, simulator):
        result = simulator.run(
            (), [("diamond:west", "diamond:north")], "shortest",
            CascadeConfig(headroom=None),
        )
        assert result.failed_pops == ()
        assert result.failed_links == (("diamond:north", "diamond:west"),)
        assert not result.partitioned

    def test_served_demand_matches_component_demand(self, simulator):
        """Failing south leaves {west, north, east} connected."""
        result = simulator.run(
            ["diamond:south"], (), "shortest",
            CascadeConfig(headroom=None),
        )
        idx = {pid: i for i, pid in enumerate(simulator.pop_ids)}
        alive = [idx[p] for p in
                 ("diamond:west", "diamond:north", "diamond:east")]
        served = sum(
            simulator.demand[i, j]
            for n, i in enumerate(alive) for j in alive[n + 1:]
        )
        total = sum(
            simulator.demand[i, j]
            for i in range(len(simulator.pop_ids))
            for j in range(i + 1, len(simulator.pop_ids))
        )
        expected = served / total
        assert result.served_demand == pytest.approx(expected)
        assert result.unserved_demand == pytest.approx(1.0 - expected)

    def test_total_collapse_partitions(self, simulator):
        result = simulator.run(
            simulator.pop_ids, (), "shortest",
        )
        assert result.served_demand == 0.0
        assert result.partitioned
        assert result.route_hits == 0


class TestEngineHandOff:
    def test_survival_sample_routes_on_the_simulator_engine(self):
        """Baseline loads and the survival sample share one engine, so
        re-sampling on it afterwards is all cache hits."""
        network, model = build_diamond_network(), build_diamond_model()
        engine = RoutingEngine(network.distance_graph(), model)
        CascadeSimulator(
            network, model, sample_pairs=SAMPLE_PAIRS, engine=engine
        )
        misses = engine.stats()["sweeps"]["misses"]
        assert misses > 0
        sampled_pair_routes(network, model, SAMPLE_PAIRS, engine=engine)
        assert engine.stats()["sweeps"]["misses"] == misses


class TestValidation:
    def test_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CascadeConfig(headroom=0.0)
        with pytest.raises(ValueError):
            CascadeConfig(alternates=0)

    def test_unknown_policy_rejected(self, simulator):
        with pytest.raises(ValueError):
            simulator.run(["diamond:south"], (), "ecmp")

    def test_unknown_elements_rejected(self, simulator):
        with pytest.raises(KeyError):
            simulator.run(["diamond:atlantis"], (), "shortest")
        with pytest.raises(KeyError):
            simulator.run((), [("diamond:west", "diamond:atlantis")],
                          "shortest")
