"""Tests for repro.session.RoutingSession — the redesigned entry point."""

from __future__ import annotations

import pytest

from repro import RoutingSession
from repro.core.strategy import SweepStrategy, resolve_strategy
from repro.topology.zoo import network_by_name
from tests.conftest import build_diamond_model

WEST, NORTH, EAST, SOUTH = (
    "diamond:west", "diamond:north", "diamond:east", "diamond:south"
)


@pytest.fixture
def session(diamond_network, diamond_model):
    return RoutingSession(diamond_network, diamond_model)


class TestConstruction:
    def test_network_mode_defaults_model(self, diamond_network):
        session = RoutingSession(diamond_network)
        assert session.model is not None
        assert session.network is diamond_network

    def test_graph_mode_needs_model(self, diamond_network):
        with pytest.raises(ValueError):
            RoutingSession(diamond_network.distance_graph())

    def test_graph_mode_with_model(self, diamond_network, diamond_model):
        session = RoutingSession(
            diamond_network.distance_graph(), diamond_model
        )
        assert session.network is None
        route = session.route("diamond:west", "diamond:east")
        assert "diamond:south" not in route.path

    def test_rejects_other_types(self, diamond_model):
        with pytest.raises(TypeError):
            RoutingSession({"not": "a network"}, diamond_model)

    def test_fails_fast_on_model_mismatch(self, diamond_network):
        graph = diamond_network.distance_graph()
        graph.add_node("orphan")
        with pytest.raises(KeyError):
            RoutingSession(graph, build_diamond_model())


class TestFacadeParity:
    """The facade must agree with the analysis it fronts."""

    def test_provision_matches_analyzer(self, diamond_network, diamond_model):
        from repro.core.provisioning import ProvisioningAnalyzer

        session = RoutingSession(diamond_network, diamond_model)
        direct = ProvisioningAnalyzer(
            diamond_network, diamond_model
        ).rank_candidates(top=3)
        assert session.provision(top=3) == direct

    def test_provision_graph_mode_raises(self, diamond_network, diamond_model):
        session = RoutingSession(
            diamond_network.distance_graph(), diamond_model
        )
        with pytest.raises(ValueError):
            session.provision()

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"k": 0}, ValueError),
            ({"k": 2, "top": -5}, ValueError),
            # Neither knob exists: the one candidate set and the one
            # greedy loop take no such argument.
            ({"k": 1, "verify_every": 1}, TypeError),
            ({"k": 2, "candidates": []}, TypeError),
        ],
        ids=["k0", "k2-top", "k1-verify", "k2-candidates"],
    )
    def test_provision_bad_k(self, session, kwargs, error):
        with pytest.raises(error):
            session.provision(**kwargs)


class TestModelLifecycle:
    def test_update_forecast_invalidates(self, diamond_network, session):
        session.all_pairs()
        of = {pop_id: 0.3 for pop_id in diamond_network.pop_ids()}
        assert session.update_forecast(of) is True
        # Same forecast again: fingerprint unchanged, caches kept.
        assert session.update_forecast(of) is False

    def test_update_changes_answers(self, diamond_network):
        session = RoutingSession(diamond_network, build_diamond_model())
        assert "diamond:north" in session.route(
            "diamond:west", "diamond:east"
        ).path
        flipped = build_diamond_model(south_risk=1e-3, north_risk=5e-2)
        assert session.update_model(flipped) is True
        assert "diamond:south" in session.route(
            "diamond:west", "diamond:east"
        ).path

    def test_with_gammas_sibling(self, session):
        relaxed = RoutingSession(
            session.network, session.model.with_gammas(0.0, 0.0)
        )
        assert relaxed is not session
        assert relaxed.network is session.network
        pair = relaxed.pair("diamond:west", "diamond:east")
        assert pair.riskroute.bit_miles == pytest.approx(
            pair.shortest.bit_miles
        )
        # The original session is untouched.
        assert session.model.gamma_h != 0.0


class TestStrategyCoercion:
    def test_enum_and_string_agree(self, session):
        by_enum = session.routes_from(
            "diamond:west", strategy=SweepStrategy.PER_SOURCE
        )
        by_string = session.routes_from("diamond:west", strategy="per-source")
        assert by_enum == by_string

    def test_unknown_string_raises(self, session):
        with pytest.raises(ValueError):
            session.routes_from("diamond:west", strategy="fastest")

    def test_strategy_is_the_one_spelling(self, session):
        # No exact= alias: strategy= is the only way to pick a sweep.
        with pytest.raises(TypeError):
            session.all_pairs(exact=False)
        with pytest.raises(TypeError):
            session.engine.ratios(exact=True)

    def test_resolve_strategy_bool_positional_warns(self):
        # The one-release bool shim is gone: a bool is not a strategy.
        for flag in (True, False):
            with pytest.raises(ValueError, match="unknown strategy"):
                resolve_strategy(flag)

    def test_route_per_source_strategy(self, session):
        exact = session.route("diamond:west", "diamond:east")
        approx = session.route(
            "diamond:west", "diamond:east", strategy="per-source"
        )
        assert approx.path[0] == exact.path[0]
        assert approx.path[-1] == exact.path[-1]
        assert approx == session.routes_from(
            "diamond:west", strategy="per-source"
        )["diamond:east"]


class TestInvalidationBoundary:
    """A forecast swap must drop exactly the risk-weighted sweeps:
    geographic (alpha == 0) sweeps stay warm across advisories."""

    def test_forecast_swap_keeps_geographic_sweeps(
        self, diamond_network, session
    ):
        engine = session.engine
        # Warm one geographic and one risk-weighted sweep (an EXACT pair
        # caches only its geographic sweep: its risk route is memoized
        # as a route, not as a sweep).
        session.shortest("diamond:west", "diamond:east")
        session.route("diamond:west", "diamond:east", strategy="per-source")
        warm = engine.stats()
        assert warm["cached_sweeps"] == 2
        of = {pop_id: 0.3 for pop_id in diamond_network.pop_ids()}
        assert session.update_forecast(of) is True
        after = engine.stats()
        # Risk sweeps dropped, geographic sweeps survived.
        assert 1 <= after["cached_sweeps"] < warm["cached_sweeps"]
        # The surviving sweep really is the geographic one: a shortest
        # query is a pure cache hit ...
        hits_before = engine.stats()["sweeps"]["hits"]
        misses_before = engine.stats()["sweeps"]["misses"]
        session.shortest("diamond:west", "diamond:east")
        assert engine.stats()["sweeps"]["hits"] == hits_before + 1
        assert engine.stats()["sweeps"]["misses"] == misses_before
        # ... while the risk-weighted sweep must be recomputed.
        session.route("diamond:west", "diamond:east", strategy="per-source")
        assert engine.stats()["sweeps"]["misses"] == misses_before + 1

    def test_forecast_swap_drops_aggregates(self, session, diamond_network):
        first = session.all_pairs()
        of = {pop_id: 0.25 for pop_id in diamond_network.pop_ids()}
        assert session.update_forecast(of) is True
        second = session.all_pairs()
        assert second is not first  # memoized aggregate was invalidated

    def test_with_gammas_never_leaks_across_settings(self, diamond_network):
        base = RoutingSession(diamond_network, build_diamond_model())
        assert "diamond:north" in base.route(
            "diamond:west", "diamond:east"
        ).path
        # A gamma-free sibling must not be served the gamma-weighted
        # cached sweep: with risk switched off the geometrically
        # shorter (risky) south corridor wins.
        relaxed = RoutingSession(
            diamond_network, base.model.with_gammas(0.0, 0.0)
        )
        relaxed_route = relaxed.route("diamond:west", "diamond:east")
        assert "diamond:south" in relaxed_route.path
        assert relaxed_route.bit_miles == pytest.approx(
            relaxed.shortest("diamond:west", "diamond:east").bit_miles
        )
        # Swapping back, the original gammas answer correctly again —
        # no residue from the sibling's sweeps either.
        assert "diamond:north" in base.route(
            "diamond:west", "diamond:east"
        ).path

    def test_with_gammas_result_cache_isolated(self, diamond_network):
        base = RoutingSession(diamond_network, build_diamond_model())
        base_ratios = base.all_pairs()
        sibling = RoutingSession(
            diamond_network, base.model.with_gammas(0.0, 0.0)
        )
        sibling_ratios = sibling.all_pairs()
        # Different gammas, different aggregates — a leaked result
        # cache entry would have returned the identical object.
        assert sibling_ratios is not base_ratios
        assert (
            sibling_ratios.risk_reduction_ratio
            != base_ratios.risk_reduction_ratio
        )
        # And the base session still answers with its own numbers.
        assert base.all_pairs() == base_ratios


class TestSharedCaches:
    def test_warm_all_pairs_is_memoized(self, session):
        first = session.all_pairs()
        assert session.all_pairs() is first


def _sweep_counters(engine):
    sweeps = engine.stats()["sweeps"]
    return sweeps["misses"], sweeps["invalidations"]


class TestOwnEngine:
    """Each session builds one engine and keeps it: sessions over one
    topology never swap models on a shared engine, and only a mutation
    of the session's own graph replaces it."""

    def test_with_gammas_sibling_keeps_its_sweeps(self):
        network = network_by_name("Sprint")
        base = RoutingSession(network)
        sibling = RoutingSession(network, base.model.with_gammas(0.0, 0.0))
        source, target = network.pop_ids()[0], network.pop_ids()[-1]
        for _ in range(3):
            base.route(source, target)
            sibling.route(source, target)
        for session in (base, sibling):
            assert _sweep_counters(session.engine) == (1, 0)
        assert base.engine is not sibling.engine

    def test_greedy_provision_keeps_the_session_engine(self):
        session = RoutingSession(network_by_name("Sprint"))
        engine = session.engine
        session.provision(k=17)
        assert session.engine is engine
        assert engine.stats()["cached_sweeps"] > 0

    def test_repeat_provision_reuses_session_sweeps(self, teliasonera):
        session = RoutingSession(teliasonera)
        first = session.provision(top=3)
        misses, _ = _sweep_counters(session.engine)
        assert session.provision(top=3) == first
        assert _sweep_counters(session.engine)[0] == misses

    def test_update_model_swaps_in_place(self, session):
        engine = session.engine
        session.all_pairs()
        flipped = build_diamond_model(south_risk=1e-3, north_risk=5e-2)
        assert session.update_model(flipped) is True
        assert session.engine is engine
        assert engine.model is flipped
        assert engine.stats()["sweeps"]["invalidations"] > 0

    @pytest.mark.parametrize(
        "mutate, path",
        [
            (lambda g: g.add_edge(WEST, EAST, 1.0), (WEST, EAST)),
            (lambda g: g.remove_edge(SOUTH, EAST), (WEST, NORTH, EAST)),
        ],
        ids=["add_edge", "remove_edge"],
    )
    def test_mutated_graph_gets_fresh_engine(
        self, diamond_network, diamond_model, mutate, path
    ):
        graph = diamond_network.distance_graph()
        session = RoutingSession(graph, diamond_model)
        engine = session.engine
        assert session.shortest(WEST, EAST).path == (WEST, SOUTH, EAST)
        mutate(graph)
        assert session.engine is not engine
        assert session.shortest(WEST, EAST).path == path
        assert session.engine is session.engine
