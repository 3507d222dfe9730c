"""Component-scoped delta invalidation: ingest keeps untouched islands.

The streaming-ingest issue's engine half: ``update_model`` computes the
set of *dirty* nodes (entry risk or share moved), maps them to
connected components, and drops only the sweeps and per-source results
whose source lives in a dirty component.  A localized ``o_h`` change —
one region's events moved — therefore keeps every memoized sweep for
sources in untouched islands, served from cache with their hit
counters advancing, while touched sources recompute and answer from
the new field.
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


def _warm(session):
    """One risk-weighted pair per island; returns the two answers."""
    west = session.pair("isles:sf", "isles:fresno")
    east = session.pair("isles:nyc", "isles:albany")
    return west, east


class TestComponentScopedInvalidation:
    def test_untouched_island_keeps_sweeps_and_results(self, session):
        _warm(session)
        engine = session.engine
        before = engine.stats()
        assert before["cached_sweeps"] > 0

        # Ingest-shaped change: only the west island's o_h moves.
        changed = session.update_historical(
            {
                pop_id: (5e-2 if pop_id in WEST_ISLAND else 1e-3)
                for pop_id in WEST_ISLAND + EAST_ISLAND
            }
        )
        assert changed is True

        # Re-serving the east pair is pure cache: no new sweeps run.
        misses_before = engine.stats()["sweeps"]["misses"]
        hits_before = engine.stats()["sweeps"]["hits"]
        session.pair("isles:nyc", "isles:albany")
        after = engine.stats()
        assert after["sweeps"]["misses"] == misses_before
        assert after["sweeps"]["hits"] >= hits_before

        # The west pair recomputes (its component is dirty).
        session.pair("isles:sf", "isles:fresno")
        assert engine.stats()["sweeps"]["misses"] > misses_before

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
        # Both components dirty: only geographic (alpha == 0) sweeps
        # may survive, and no per-source results do.
        assert stats["cached_results"] == 0
