"""Tests for repro.core.mrc — Multiple Routing Configurations."""

import pytest

from repro.core.mrc import MrcScheme, build_mrc
from repro.graph.core import Graph
from repro.risk.model import RiskModel
from tests.conftest import build_diamond_model, build_diamond_network


@pytest.fixture
def diamond_mrc(diamond_network, diamond_model):
    return build_mrc(diamond_network.distance_graph(), diamond_model, 2)


class TestConstruction:
    def test_invariants_hold_on_diamond(self, diamond_mrc):
        diamond_mrc.verify()

    def test_configuration_count(self, diamond_mrc):
        assert diamond_mrc.configuration_count == 2

    def test_too_few_configurations(self, diamond_network, diamond_model):
        with pytest.raises(ValueError):
            build_mrc(diamond_network.distance_graph(), diamond_model, 1)

    def test_disconnected_rejected(self, diamond_model):
        graph: Graph = Graph()
        graph.add_node("diamond:west")
        graph.add_node("diamond:east")
        with pytest.raises(ValueError):
            build_mrc(graph, diamond_model, 2)

    def test_every_node_isolated_somewhere(self, diamond_mrc, diamond_network):
        isolated = set()
        for config in diamond_mrc.configurations():
            isolated |= set(config.isolated)
        assert isolated == set(diamond_network.pop_ids())


class TestRouting:
    def test_configuration_avoids_isolated_transit(self, diamond_mrc):
        for config in diamond_mrc.configurations():
            survivors = [
                n
                for n in ("diamond:west", "diamond:east")
                if n not in config.isolated
            ]
            if len(survivors) < 2:
                continue
            route = config.route(survivors[0], survivors[1])
            assert not config.transits_isolated(route.path)

    def test_isolated_target_still_reachable(self, diamond_mrc):
        config = diamond_mrc.configuration_isolating("diamond:north")
        route = config.route("diamond:south", "diamond:north")
        assert route.path[-1] == "diamond:north"


class TestRecovery:
    def test_recovery_avoids_failed_node(self, diamond_mrc, diamond_model):
        route = diamond_mrc.recover(
            "diamond:west", "diamond:east", "diamond:south"
        )
        assert route is not None
        assert "diamond:south" not in route.path

    def test_recovery_for_every_transit_failure(self, diamond_mrc):
        for failed in ("diamond:north", "diamond:south"):
            route = diamond_mrc.recover("diamond:west", "diamond:east", failed)
            assert route is not None
            assert failed not in route.path

    def test_endpoint_failure_unrecoverable(self, diamond_mrc):
        assert (
            diamond_mrc.recover("diamond:west", "diamond:east", "diamond:west")
            is None
        )

    def test_unisolated_node_raises(self, diamond_mrc):
        with pytest.raises(KeyError):
            diamond_mrc.configuration_isolating("ghost")


class TestCorpusIntegration:
    def test_mrc_on_corpus_network(self, teliasonera, teliasonera_model):
        scheme = build_mrc(
            teliasonera.distance_graph(), teliasonera_model, 3
        )
        unprotectable = scheme.verify()
        # Only genuine cut vertices may be unprotectable.
        from repro.graph.components import articulation_points

        assert unprotectable <= articulation_points(
            teliasonera.distance_graph()
        )
        # Recover an arbitrary transit failure on a real route.
        session = scheme.configurations()[0].session
        source, target = "Teliasonera:Miami, FL", "Teliasonera:Seattle, WA"
        primary = session.route(source, target)
        transit = [n for n in primary.path[1:-1]]
        if transit:
            recovered = scheme.recover(source, target, transit[0])
            assert recovered is not None
            assert transit[0] not in recovered.path

    def test_zero_gamma_f_still_isolates(self, diamond_network):
        model = build_diamond_model(gamma_f=0.0)
        scheme = build_mrc(diamond_network.distance_graph(), model, 2)
        scheme.verify()
        route = scheme.recover(
            "diamond:west", "diamond:east", "diamond:south"
        )
        assert route is not None
        assert "diamond:south" not in route.path
