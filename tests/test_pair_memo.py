"""EXACT single pairs: a search of their own, memoized as answers.

An ``EXACT`` pair's impact ``c_s + c_t`` is shared with no other query,
so the engine answers it with a search stopped at its target (landmark
A* from ``TARGETED_MIN_NODES`` nodes) and memoizes the route per pair,
instead of caching a full sweep under that alpha.  These tests hold the
contract:

* below the A* gate the answer is the route read off the full
  ``(c_s + c_t, s)`` sweep, path and both costs bit for bit, on every
  corpus network and on a graph whose optima tie exactly;
* a write drops every memoized pair, so the next reply equals a cold
  session's at the new model, byte for byte;
* pairs from one source cache that source's geographic sweep only;
* on continental graphs the landmark bounds still prune.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import RoutingSession
from repro.core.bitrisk import path_metrics
from repro.disasters.events import EventType
from repro.engine import RoutingEngine
from repro.engine import engine as engine_module
from repro.graph.core import Graph
from repro.risk.model import RiskModel
from repro.server.coalesce import PendingRequest
from repro.server.protocol import PROTOCOL_VERSION, Request
from repro.server.service import QueryService
from repro.topology.builders import continental_network
from repro.topology.zoo import all_networks, network_by_name
from tests.test_engine import _seeded_model

MIAMI = "Teliasonera:Miami, FL"
SEATTLE = "Teliasonera:Seattle, WA"


def _assert_read_off_sweeps(graph, model, pairs) -> RoutingEngine:
    """A fresh engine's ``route_pair`` and EXACT ``risk_route`` equal the
    route read off a full sweep at the pair's alpha (the shortest path
    off the alpha-0 sweep): path, and ``float.hex`` of both costs.
    Returns the fresh engine."""
    fresh = RoutingEngine(graph, model)
    reference = RoutingEngine(graph, model)
    names = reference.node_ids
    for source, target in pairs:
        pair = fresh.route_pair(source, target)
        alpha = model.impact(source, target)
        for got, sweep_alpha in (
            (pair.riskroute, alpha),
            (fresh.risk_route(source, target), alpha),
            (pair.shortest, 0.0),
        ):
            sweep = reference.sweep(source, sweep_alpha)
            path = [
                names[i] for i in sweep.path_to(reference.index_of(target))
            ]
            want = path_metrics(graph, path, model)
            assert got.path == want.path, (source, target)
            assert got.bit_miles.hex() == want.distance_miles.hex()
            assert got.bit_risk_miles.hex() == want.bit_risk_miles.hex()
    return fresh


def _ring() -> tuple:
    """Four nodes on a ring at zero risk, whose opposite corners r0 and
    r2 are joined by two exactly tied optima: 50 + 150 miles through r1
    and 150 + 50 through r3.  The full sweep settles r1 first and keeps
    it as r2's parent; A* under exact landmark bounds ranks r1 and r3
    equal and pops r3, pushed first, so it would return the other path.
    """
    graph: Graph = Graph()
    for u, v, miles in (
        ("r0", "r3", 150.0),
        ("r0", "r1", 50.0),
        ("r1", "r2", 150.0),
        ("r3", "r2", 50.0),
    ):
        graph.add_edge(u, v, miles)
    nodes = list(graph.nodes())
    model = RiskModel(
        dict.fromkeys(nodes, 0.25),
        dict.fromkeys(nodes, 0.0),
        dict.fromkeys(nodes, 0.0),
    )
    return graph, model


class TestReadOffTheFullSweep:
    def test_tied_ring_all_pairs(self):
        graph, model = _ring()
        nodes = list(graph.nodes())
        pairs = [(s, t) for s in nodes for t in nodes]
        fresh = _assert_read_off_sweeps(graph, model, pairs)
        assert fresh.route_pair("r0", "r2").riskroute.path == (
            "r0", "r1", "r2"
        )

    def test_every_corpus_network_up_to_60_pops_all_pairs(self):
        checked = 0
        for network in all_networks():
            if len(network.pop_ids()) > 60:
                continue
            model = RoutingSession(network).model
            ids = network.pop_ids()
            pairs = [(s, t) for s in ids for t in ids if s != t]
            fresh = _assert_read_off_sweeps(
                network.distance_graph(), model, pairs
            )
            # Only the geographic sweeps were cached, one per source.
            assert fresh.stats()["cached_sweeps"] == len(ids), network.name
            checked += 1
        assert checked == 22

    def test_level3_seeded_sample(self):
        network = network_by_name("Level3")
        ids = network.pop_ids()
        rng = random.Random(31)
        pairs = [tuple(rng.sample(ids, 2)) for _ in range(500)]
        _assert_read_off_sweeps(
            network.distance_graph(), RoutingSession(network).model, pairs
        )


def _request(op: str, params: dict, request_id: int) -> PendingRequest:
    return PendingRequest(
        request=Request(
            op=op, id=request_id, params=params, v=PROTOCOL_VERSION
        ),
        writer=None, arrived=0.0,
    )


def _pair_reply(service: QueryService) -> bytes:
    item = _request("pair", {"source": MIAMI, "target": SEATTLE}, 7)
    service.execute_batch([item])
    assert item.ok, item.reply
    return item.reply


class TestMemoAcrossWrites:
    def test_pair_after_each_write_matches_cold_session(self, teliasonera):
        service = QueryService(RoutingSession(teliasonera))
        session = service.session

        def cold() -> bytes:
            return _pair_reply(
                QueryService(RoutingSession(teliasonera, session.model))
            )

        first = _pair_reply(service)
        assert first == cold()
        assert _pair_reply(service) == first  # a memo hit
        assert session.stats()["routes"]["hits"] == 1
        transit = json.loads(first)["result"]["riskroute"]["path"][1:-1]
        assert transit

        # A forecast on the route's transit PoPs moves the route.
        forecast = _request(
            "update_forecast",
            {"risk": dict.fromkeys(transit, 1.0), "default": 0.0},
            8,
        )
        assert service.apply_update(forecast).changed
        after_forecast = _pair_reply(service)
        assert after_forecast != first
        assert after_forecast == cold()

        location = teliasonera.pop(transit[0]).location
        ingest = _request(
            "ingest",
            {"events": [
                {"event_type": EventType.FEMA_TORNADO, "lat": location.lat,
                 "lon": location.lon, "year": 2005},
            ]},
            9,
        )
        assert service.apply_ingest(ingest).changed
        after_ingest = _pair_reply(service)
        assert after_ingest != after_forecast  # new fingerprint at least
        assert after_ingest == cold()


class TestCacheShape:
    def test_targets_from_one_source_cache_one_sweep(self, teliasonera):
        session = RoutingSession(teliasonera)
        source, *targets = teliasonera.pop_ids()
        for target in targets:
            session.pair(source, target)
            session.route(source, target)
        stats = session.stats()
        assert stats["cached_sweeps"] == 1
        assert stats["cached_routes"] == 2 * len(targets)
        assert stats["targeted"]["queries"] == 2 * len(targets)
        # The one cached sweep is the source's geographic sweep.
        session.engine.sweep(source, 0.0)
        after = session.stats()
        assert after["sweeps"]["hits"] == stats["sweeps"]["hits"] + 1
        assert after["cached_sweeps"] == 1


class TestContinental:
    @pytest.fixture(scope="class")
    def continental(self):
        network = continental_network(pop_count=1024, seed=0)
        return network, _seeded_model(network)

    def test_landmark_bounds_prune(self, continental, monkeypatch):
        """Through the service: two A* searches per cold pair, the
        geographic and the risk route, each settling fewer than n nodes,
        at the full sweeps' costs."""
        network, model = continental
        session = RoutingSession(network, model)
        service = QueryService(session)
        ids = network.pop_ids()
        n = len(ids)
        rng = random.Random(5)
        graph = network.distance_graph()
        reference = RoutingEngine(graph, model)
        searches = []
        search = engine_module.csr_sweep

        def recording(*args, **kwargs):
            result = search(*args, **kwargs)
            searches.append(
                (args[5], kwargs.get("bounds") is not None, result.settled)
            )
            return result

        monkeypatch.setattr(engine_module, "csr_sweep", recording)
        for request_id in range(8):
            source, target = rng.sample(ids, 2)
            item = _request(
                "pair", {"source": source, "target": target}, request_id
            )
            del searches[:]
            service.execute_batch([item])
            assert item.ok, item.reply
            alpha = model.impact(source, target)
            assert [(a, pruned) for a, pruned, _ in searches] == [
                (0.0, True), (alpha, True),
            ]
            assert all(settled < n for _, _, settled in searches)
            served = json.loads(item.reply)["result"]
            shortest, risky = (
                path_metrics(graph, [
                    reference.node_ids[i]
                    for i in reference.sweep(source, sweep_alpha).path_to(
                        reference.index_of(target)
                    )
                ], model)
                for sweep_alpha in (0.0, alpha)
            )
            assert served["shortest"]["path"] == list(shortest.path)
            assert served["shortest"]["bit_miles"] == shortest.distance_miles
            assert served["riskroute"]["bit_risk_miles"] == (
                risky.bit_risk_miles
            )
