"""The engine's one swap rule.

When the risk field changes (a forecast swap, an ingest, new gammas),
``RoutingEngine.update_model`` keeps the geographic ``alpha == 0``
sweeps and drops every other sweep and every memoized result; a model
whose field hashes to the current fingerprint keeps everything.  The
rule scopes nothing to connected components: every topology anything
serves is one component, which ``test_topology_zoo.py::
TestCorpusQuality::test_every_network_connected`` and
``test_topology_interdomain.py::TestCorpusIntegration::
test_corpus_merge_is_connected`` check by ``csr_sweep`` reachability.
A two-island network shows that answers stay exact on a topology with
more than one component too.
"""

from __future__ import annotations

import pytest

from repro import RoutingSession
from repro.geo.coords import GeoPoint
from repro.risk.model import RiskModel
from repro.topology.network import Network, NetworkTier, PoP

WEST_ISLAND = ("isles:sf", "isles:la", "isles:fresno")
EAST_ISLAND = ("isles:nyc", "isles:boston", "isles:albany")


def build_two_island_network() -> Network:
    """Two triangles with no path between them (two CSR components)."""
    network = Network("isles", tier=NetworkTier.TIER1)
    network.add_pop(PoP("isles:sf", "SF", GeoPoint(37.77, -122.42)))
    network.add_pop(PoP("isles:la", "LA", GeoPoint(34.05, -118.24)))
    network.add_pop(PoP("isles:fresno", "Fresno", GeoPoint(36.75, -119.77)))
    network.add_pop(PoP("isles:nyc", "NYC", GeoPoint(40.71, -74.01)))
    network.add_pop(PoP("isles:boston", "Boston", GeoPoint(42.36, -71.06)))
    network.add_pop(PoP("isles:albany", "Albany", GeoPoint(42.65, -73.75)))
    network.add_link("isles:sf", "isles:la")
    network.add_link("isles:la", "isles:fresno")
    network.add_link("isles:fresno", "isles:sf")
    network.add_link("isles:nyc", "isles:boston")
    network.add_link("isles:boston", "isles:albany")
    network.add_link("isles:albany", "isles:nyc")
    return network


def build_two_island_model(west_risk: float = 2e-2) -> RiskModel:
    pops = WEST_ISLAND + EAST_ISLAND
    shares = {pop_id: 1.0 / len(pops) for pop_id in pops}
    oh = {pop_id: 1e-3 for pop_id in pops}
    for pop_id in WEST_ISLAND:
        oh[pop_id] = west_risk
    of = {pop_id: 0.0 for pop_id in pops}
    return RiskModel(shares, oh, of, gamma_h=1e5, gamma_f=1e3)


@pytest.fixture
def session():
    return RoutingSession(build_two_island_network(), build_two_island_model())


@pytest.fixture
def corpus_session(teliasonera, teliasonera_model):
    return RoutingSession(teliasonera, teliasonera_model)


def _warm(session):
    """One risk-weighted pair per island; returns the two answers."""
    west = session.pair("isles:sf", "isles:fresno")
    east = session.pair("isles:nyc", "isles:albany")
    return west, east


def _warm_corpus(session):
    """Fill both caches: geographic and risk-weighted sweeps, results."""
    ids = session.network.pop_ids()
    session.pair(ids[0], ids[-1])
    session.all_pairs()
    engine = session.engine
    sweeps = list(engine._sweeps._entries)
    assert any(key[0] == 0.0 for key in sweeps)
    assert any(key[0] != 0.0 for key in sweeps)
    assert len(engine._results) > 0
    return sweeps


class TestSwapRule:
    def test_changed_field_keeps_exactly_the_geographic_sweeps(
        self, corpus_session
    ):
        sweeps = _warm_corpus(corpus_session)
        engine = corpus_session.engine
        fingerprint = engine.risk_fingerprint
        forecast = dict.fromkeys(corpus_session.model.pop_ids(), 0.0)
        forecast[corpus_session.network.pop_ids()[0]] = 50.0
        assert corpus_session.update_forecast(forecast) is True
        assert engine.risk_fingerprint != fingerprint
        assert list(engine._sweeps._entries) == [
            key for key in sweeps if key[0] == 0.0
        ]
        assert len(engine._results) == 0

    def test_equal_fingerprint_keeps_everything(self, corpus_session):
        sweeps = _warm_corpus(corpus_session)
        engine = corpus_session.engine
        results = list(engine._results._entries)
        model = corpus_session.model
        equal = RiskModel(
            {p: model.share(p) for p in model.pop_ids()},
            {p: model.historical_risk(p) for p in model.pop_ids()},
            {p: model.forecast_risk(p) for p in model.pop_ids()},
            model.gamma_h,
            model.gamma_f,
        )
        assert equal is not model
        assert corpus_session.update_model(equal) is False
        assert engine.model is equal
        assert list(engine._sweeps._entries) == sweeps
        assert list(engine._results._entries) == results


class TestComponentScopedInvalidation:
    """Nothing is scoped to a component: on a topology with two
    islands, a change to one island's risk clears the other's
    risk-weighted sweeps too, and answers stay exact."""

    def test_untouched_island_answers_match_cold_engine(self, session):
        _warm(session)
        new_oh = {
            pop_id: (5e-2 if pop_id in WEST_ISLAND else 1e-3)
            for pop_id in WEST_ISLAND + EAST_ISLAND
        }
        session.update_historical(new_oh)
        warm_west = session.pair("isles:sf", "isles:fresno")
        warm_east = session.pair("isles:nyc", "isles:albany")

        cold = RoutingSession(
            build_two_island_network(),
            build_two_island_model().with_historical_risk(new_oh),
        )
        cold_west = cold.pair("isles:sf", "isles:fresno")
        cold_east = cold.pair("isles:nyc", "isles:albany")
        for warm, fresh in ((warm_west, cold_west), (warm_east, cold_east)):
            assert warm.riskroute.path == fresh.riskroute.path
            assert warm.riskroute.bit_risk_miles == fresh.riskroute.bit_risk_miles
            assert warm.shortest.path == fresh.shortest.path

    def test_fingerprint_moves_with_localized_change(self, session):
        fingerprint = session.engine.risk_fingerprint
        session.update_historical(
            {
                pop_id: (5e-2 if pop_id in WEST_ISLAND else 1e-3)
                for pop_id in WEST_ISLAND + EAST_ISLAND
            }
        )
        assert session.engine.risk_fingerprint != fingerprint

    def test_localized_change_clears_every_island(self, session):
        """Only the west island's o_h moves, and the east island's
        risk-weighted sweeps go too: nothing is scoped to components."""
        _warm(session)
        engine = session.engine
        session.update_historical(
            {
                pop_id: (5e-2 if pop_id in WEST_ISLAND else 1e-3)
                for pop_id in WEST_ISLAND + EAST_ISLAND
            }
        )
        assert all(key[0] == 0.0 for key in engine._sweeps._entries)
        assert len(engine._results) == 0
        misses = engine.stats()["sweeps"]["misses"]
        session.pair("isles:nyc", "isles:albany")
        assert engine.stats()["sweeps"]["misses"] > misses

    def test_global_change_still_clears_everything(self, session):
        _warm(session)
        engine = session.engine
        session.update_historical(
            {
                pop_id: 7e-3
                for pop_id in WEST_ISLAND + EAST_ISLAND
            }
        )
        stats = engine.stats()
        # Only geographic (alpha == 0) sweeps may survive, and no
        # results do.
        assert stats["cached_results"] == 0
