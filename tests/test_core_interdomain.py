"""Tests for repro.core.interdomain — Section 6.2 bounds."""

import pytest

from repro.core.interdomain import (
    InterdomainRouter,
    regional_pair_population,
)
from repro.core.provisioning import best_new_peering
from repro.core.strategy import SweepStrategy
from repro.geo.coords import GeoPoint
from repro.risk.model import RiskModel
from repro.topology.interdomain import InterdomainTopology
from repro.topology.network import Network, PoP
from repro.topology.peering import PeeringGraph


def build_two_domain_world():
    """Regional R homed to transit T; T spans the country.

    R covers the east; T provides a risky southern transit PoP and a safe
    northern one between R's two metros.
    """
    r = Network("R", tier="regional", states=("NY", "MA"))
    r.add_pop(PoP("R:nyc", "New York", GeoPoint(40.71, -74.01)))
    r.add_pop(PoP("R:bos", "Boston", GeoPoint(42.36, -71.06)))
    r.add_link("R:nyc", "R:bos")

    t = Network("T")
    t.add_pop(PoP("T:nyc", "New York", GeoPoint(40.72, -74.00)))
    t.add_pop(PoP("T:chi", "Chicago", GeoPoint(41.88, -87.63)))
    t.add_pop(PoP("T:atl", "Atlanta", GeoPoint(33.75, -84.39)))
    t.add_pop(PoP("T:den", "Denver", GeoPoint(39.74, -104.98)))
    t.add_link("T:nyc", "T:chi")
    t.add_link("T:nyc", "T:atl")
    t.add_link("T:chi", "T:den")
    t.add_link("T:atl", "T:den")

    peering = PeeringGraph()
    peering.add_peering("R", "T")
    topology = InterdomainTopology([r, t], peering)

    shares = {
        "R:nyc": 0.5, "R:bos": 0.5,
        "T:nyc": 0.4, "T:chi": 0.3, "T:atl": 0.2, "T:den": 0.1,
    }
    oh = {
        "R:nyc": 1e-3, "R:bos": 1e-3,
        "T:nyc": 1e-3, "T:chi": 1e-3, "T:atl": 5e-2, "T:den": 1e-3,
    }
    of = {k: 0.0 for k in shares}
    model = RiskModel(shares, oh, of, gamma_h=1e5, gamma_f=1e3)
    return topology, model


class TestBounds:
    def test_bound_ordering(self):
        topology, model = build_two_domain_world()
        router = InterdomainRouter(topology, model)
        pair = router.session.pair("R:bos", "T:den")
        assert (
            pair.riskroute.bit_risk_miles
            <= pair.shortest.bit_risk_miles + 1e-9
        )

    def test_riskroute_crosses_peering(self):
        topology, model = build_two_domain_world()
        router = InterdomainRouter(topology, model)
        pair = router.session.pair("R:bos", "T:den")
        # The path must transit the co-located NYC peering point.
        assert "T:nyc" in pair.riskroute.path

    def test_risk_averse_interdomain_route(self):
        topology, model = build_two_domain_world()
        router = InterdomainRouter(topology, model)
        route = router.session.route("R:bos", "T:den")
        assert "T:atl" not in route.path  # risky Atlanta avoided
        assert "T:chi" in route.path


class TestRegionalRatios:
    def test_ratios_computed(self):
        topology, model = build_two_domain_world()
        router = InterdomainRouter(topology, model)
        destinations = regional_pair_population(topology)
        assert destinations == ["R:nyc", "R:bos"]
        result = router.regional_ratios("R", ["T:den", "T:chi", "T:atl"])
        assert result.pair_count == 6
        assert result.risk_reduction_ratio >= 0.0

    def test_unknown_network(self):
        topology, model = build_two_domain_world()
        router = InterdomainRouter(topology, model)
        with pytest.raises(KeyError):
            router.regional_ratios("ghost", ["T:den"])

    def test_exact_mode(self):
        """The per-source answer stays close to per-pair optimization."""
        topology, model = build_two_domain_world()
        router = InterdomainRouter(topology, model)
        approx = router.regional_ratios("R", ["T:den", "T:atl"])
        exact = router.session.all_pairs(
            sources=topology.networks["R"].pop_ids(),
            targets=["T:den", "T:atl"],
            strategy="exact",
        )
        assert approx.risk_reduction_ratio == pytest.approx(
            exact.risk_reduction_ratio, abs=0.05
        )


class TestAggregateLowerBound:
    def test_extra_peering_reduces_bound(self):
        """A new peering can only help (more edges, same metric), and
        the via-edge score of Figure 11 equals a re-sweep of the merge
        with the peering added."""
        r = Network("R", tier="regional", states=("NY",))
        r.add_pop(PoP("R:nyc", "New York", GeoPoint(40.71, -74.01)))
        r.add_pop(PoP("R:alb", "Albany", GeoPoint(42.65, -73.76)))
        r.add_link("R:nyc", "R:alb")

        t = Network("T")
        t.add_pop(PoP("T:nyc", "New York", GeoPoint(40.72, -74.00)))
        t.add_pop(PoP("T:bos", "Boston", GeoPoint(42.36, -71.06)))
        t.add_link("T:nyc", "T:bos")

        u = Network("U", tier="regional", states=("MA",))
        u.add_pop(PoP("U:bos", "Boston", GeoPoint(42.37, -71.05)))
        u.add_pop(PoP("U:alb", "Albany", GeoPoint(42.66, -73.77)))
        u.add_link("U:bos", "U:alb")

        peering = PeeringGraph()
        peering.add_peering("R", "T")
        peering.add_peering("U", "T")
        topology = InterdomainTopology([r, t, u], peering)

        shares = {
            "R:nyc": 0.6, "R:alb": 0.4,
            "T:nyc": 0.5, "T:bos": 0.5,
            "U:bos": 0.7, "U:alb": 0.3,
        }
        oh = {k: 1e-3 for k in shares}
        of = {k: 0.0 for k in shares}
        model = RiskModel(shares, oh, of)

        destinations = regional_pair_population(topology)

        def resweep_total(topology):
            """The regional's lower bound summed over routed pairs."""
            engine = InterdomainRouter(topology, model).engine
            total = 0.0
            for source in r.pop_ids():
                routes = engine.risk_routes_from(
                    source, SweepStrategy.PER_SOURCE
                )
                for target in destinations:
                    if target != source and target in routes:
                        total += routes[target].bit_risk_miles
            return total

        rec = best_new_peering(topology, model, "R")
        assert rec.peer == "U"
        assert rec.baseline_lower_bound == pytest.approx(
            resweep_total(topology), rel=1e-12
        )
        with_peer = PeeringGraph()
        for a, b in (("R", "T"), ("U", "T"), ("R", "U")):
            with_peer.add_peering(a, b)
        assert rec.aggregate_lower_bound == pytest.approx(
            resweep_total(InterdomainTopology([r, t, u], with_peer)),
            rel=1e-12,
        )
        # The Albany co-location is a shortcut.
        assert rec.aggregate_lower_bound < rec.baseline_lower_bound
