"""Integration tests for the async query daemon.

Covers the issue's acceptance criteria: concurrent clients get
byte-identical answers to direct :class:`RoutingSession` calls while
coalescing provably occurs; a forecast hot-swap never yields a reply
mixing old and new ``o_f`` (checked via fingerprint tags); admission
control, deadlines, protocol edge cases, and graceful drain.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from repro import RoutingSession
from repro.engine import RoutingEngine
from repro.graph.core import Graph
from repro.risk.model import RiskModel
from repro.server import (
    MAX_LINE_BYTES,
    CoalescingQueue,
    PendingRequest,
    Request,
    RiskRouteClient,
    ServerConfig,
    ServerError,
    ServerThread,
)
from repro.server.protocol import pair_to_dict, ratios_to_dict, route_to_dict
from repro.topology.zoo import network_by_name
from tests.conftest import build_diamond_model


@pytest.fixture
def diamond_server(diamond_network, diamond_model):
    """A draining ServerThread over the diamond, short linger."""
    thread = ServerThread(
        RoutingSession(diamond_network, diamond_model),
        ServerConfig(batch_linger=0.002),
    )
    host, port = thread.start()
    yield thread, host, port
    thread.stop()


def _raw_connect(host, port):
    sock = socket.create_connection((host, port), timeout=10)
    return sock, sock.makefile("rwb")


class TestBasicOps:
    def test_route_matches_direct_session(self, diamond_server,
                                          diamond_network, diamond_model):
        _, host, port = diamond_server
        expected = route_to_dict(
            RoutingSession(diamond_network, diamond_model).route(
                "diamond:west", "diamond:east"
            )
        )
        with RiskRouteClient(host, port) as client:
            assert client.route("diamond:west", "diamond:east") == expected

    def test_pair_and_ratios_match(self, diamond_server, diamond_network,
                                   diamond_model):
        _, host, port = diamond_server
        session = RoutingSession(diamond_network, diamond_model)
        with RiskRouteClient(host, port) as client:
            assert client.pair("diamond:west", "diamond:east") == pair_to_dict(
                session.pair("diamond:west", "diamond:east")
            )
            assert client.ratios() == ratios_to_dict(session.all_pairs())

    def test_ratios_unknown_target_maps_to_unknown_node(self):
        """On Level3 (per-source by default) as under ``exact``, an
        unknown target name is an error, not a silently dropped pair."""
        network = network_by_name("Level3")
        sources = network.pop_ids()[:2]
        targets = [network.pop_ids()[5], "no-such-pop"]
        thread = ServerThread(RoutingSession(network))
        host, port = thread.start()
        try:
            with RiskRouteClient(host, port) as client:
                for strategy in (None, "per-source", "exact"):
                    with pytest.raises(ServerError) as excinfo:
                        client.ratios(
                            sources=sources,
                            targets=targets,
                            strategy=strategy,
                        )
                    assert excinfo.value.code == "unknown_node"
                    assert "no-such-pop" in excinfo.value.message
        finally:
            thread.stop()

    def test_provision(self, diamond_server):
        _, host, port = diamond_server
        with RiskRouteClient(host, port) as client:
            recs = client.provision(top=2)["recommendations"]
        assert len(recs) <= 2
        for rec in recs:
            assert rec["fraction_of_baseline"] <= 1.0 + 1e-12

    def test_provision_exact_and_latency_bucket(self, diamond_server):
        _, host, port = diamond_server
        with RiskRouteClient(host, port) as client:
            client.provision(k=2)
            stats = client.stats()
        by_op = stats["latency_by_op"]
        assert by_op["provision"]["count"] == 1
        assert by_op["provision"]["p50_ms"] >= 0.0
        assert by_op["provision"]["p99_ms"] >= by_op["provision"]["p50_ms"]

    def test_provision_rejects_bad_exact_param(self, diamond_server):
        _, host, port = diamond_server
        with RiskRouteClient(host, port) as client:
            with pytest.raises(ServerError) as err:
                client.call("provision", k=2, exact="yes")
        assert err.value.code == "bad_request"

    def test_health_and_stats(self, diamond_server):
        _, host, port = diamond_server
        with RiskRouteClient(host, port) as client:
            health = client.health()
            assert health["status"] == "ok"
            assert health["network"] == "diamond"
            assert health["pops"] == 4
            client.route("diamond:west", "diamond:east")
            stats = client.stats()
        assert stats["requests"] >= 2  # route + stats went through the queue
        assert stats["replies"] >= 2
        assert stats["batches"] >= 1
        assert stats["queue_high_water"] >= 1
        assert stats["p50_ms"] >= 0.0
        # An EXACT route caches no sweep: it is searched for its target
        # alone, and its answer is memoized as a route.
        assert stats["engine"]["cached_sweeps"] == 0
        assert stats["engine"]["cached_routes"] == 1
        assert stats["engine"]["targeted"]["queries"] == 1
        assert stats["risk_fingerprint"]

    def test_health_probe_stays_off_the_engine(
        self, monkeypatch, diamond_server, diamond_network
    ):
        """Only the service thread touches the engine: a health probe
        answered on the event-loop thread neither reaches the session's
        engine nor rebinds its model, yet still reports the fingerprint
        of the latest write."""
        calls = []
        engine_property = RoutingSession.engine
        update_model = RoutingEngine.update_model

        def traced_engine(session):
            calls.append(("engine", threading.current_thread()))
            return engine_property.fget(session)

        def traced_update_model(engine, model):
            calls.append(("update_model", threading.current_thread()))
            return update_model(engine, model)

        monkeypatch.setattr(RoutingSession, "engine", property(traced_engine))
        monkeypatch.setattr(RoutingEngine, "update_model", traced_update_model)
        _, host, port = diamond_server
        forecast = {pop: 0.0 for pop in diamond_network.pop_ids()}
        forecast["diamond:north"] = 10.0
        with RiskRouteClient(host, port) as client:
            before = client.health()["risk_fingerprint"]
            assert client.update_forecast(forecast)["changed"] is True
            written = client.last_fingerprint
            after = client.health()["risk_fingerprint"]
        assert before != after == written
        assert calls  # the write went through the engine...
        # ...on the service thread, never on the loop thread.
        loop_thread = diamond_server[0]._thread
        assert [c for c in calls if c[1] is loop_thread] == []

    def test_per_source_strategy(self, diamond_server, diamond_network,
                                 diamond_model):
        _, host, port = diamond_server
        expected = route_to_dict(
            RoutingSession(diamond_network, diamond_model).route(
                "diamond:west", "diamond:east", strategy="per-source"
            )
        )
        # Per-source answers every endpoint case as exact does: a
        # one-node route for source == target, unknown_node for a name
        # outside the topology.
        own = route_to_dict(
            RoutingSession(diamond_network, diamond_model).route(
                "diamond:west", "diamond:west"
            )
        )
        assert own["path"] == ["diamond:west"]
        with RiskRouteClient(host, port) as client:
            served = client.route(
                "diamond:west", "diamond:east", strategy="per-source"
            )
            assert client.route(
                "diamond:west", "diamond:west", strategy="per-source"
            ) == own
            with pytest.raises(ServerError) as excinfo:
                client.route(
                    "diamond:west", "diamond:atlantis", strategy="per-source"
                )
            assert excinfo.value.code == "unknown_node"
        assert served == expected


class TestProtocolEdgeCases:
    def test_malformed_json_line(self, diamond_server):
        _, host, port = diamond_server
        sock, stream = _raw_connect(host, port)
        try:
            stream.write(b"this is not json\n")
            stream.flush()
            reply = json.loads(stream.readline())
            assert reply["ok"] is False
            assert reply["error"]["code"] == "bad_request"
            assert reply["id"] is None
            # The connection survives a malformed line.
            stream.write(b'{"op": "health"}\n')
            stream.flush()
            assert json.loads(stream.readline())["ok"] is True
        finally:
            sock.close()

    def test_unknown_pop_maps_to_unknown_node(self, diamond_server):
        _, host, port = diamond_server
        with RiskRouteClient(host, port) as client:
            with pytest.raises(ServerError) as excinfo:
                client.route("diamond:atlantis", "diamond:east")
            assert excinfo.value.code == "unknown_node"
            assert "atlantis" in excinfo.value.message
            # Same mapping on the pair op and in update_forecast.
            with pytest.raises(ServerError) as excinfo:
                client.pair("diamond:west", "diamond:atlantis")
            assert excinfo.value.code == "unknown_node"
            with pytest.raises(ServerError) as excinfo:
                client.update_forecast({"diamond:atlantis": 0.5})
            assert excinfo.value.code == "unknown_node"

    def test_no_path_between_components(self):
        graph = Graph()
        for node in ("a", "b", "island"):
            graph.add_node(node)
        graph.add_edge("a", "b", 100.0)
        model = RiskModel(
            shares={"a": 0.4, "b": 0.4, "island": 0.2},
            historical_risk={"a": 0.0, "b": 0.0, "island": 0.0},
            forecast_risk={"a": 0.0, "b": 0.0, "island": 0.0},
        )
        thread = ServerThread(RoutingSession(graph, model))
        host, port = thread.start()
        try:
            with RiskRouteClient(host, port) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.route("a", "island")
                assert excinfo.value.code == "no_path"
        finally:
            thread.stop()

    def test_oversized_line_gets_too_large_then_close(
        self, diamond_network, diamond_model
    ):
        thread = ServerThread(RoutingSession(diamond_network, diamond_model))
        host, port = thread.start()
        try:
            sock, stream = _raw_connect(host, port)
            try:
                stream.write(
                    b'{"op": "route", "source": "'
                    + b"x" * MAX_LINE_BYTES
                    + b'", "target": "y"}\n'
                )
                stream.flush()
                reply = json.loads(stream.readline())
                assert reply["ok"] is False
                assert reply["error"]["code"] == "too_large"
                # The oversized line cannot be re-framed: EOF follows.
                assert stream.readline() == b""
            finally:
                sock.close()
        finally:
            thread.stop()

    def test_client_disconnect_mid_reply(self, diamond_server):
        _, host, port = diamond_server
        sock, stream = _raw_connect(host, port)
        stream.write(
            b'{"op": "pair", "source": "diamond:west", '
            b'"target": "diamond:east"}\n'
        )
        stream.flush()
        sock.close()  # gone before the worker can answer
        time.sleep(0.1)
        # The daemon must shrug it off and keep serving others.
        with RiskRouteClient(host, port) as client:
            assert client.health()["status"] == "ok"

    def test_bad_params_are_bad_request(self, diamond_server):
        _, host, port = diamond_server
        with RiskRouteClient(host, port) as client:
            with pytest.raises(ServerError) as excinfo:
                client.call("route", source=7, target="diamond:east")
            assert excinfo.value.code == "bad_request"
            with pytest.raises(ServerError) as excinfo:
                client.call("route", source="diamond:west",
                            target="diamond:east", strategy="fastest")
            assert excinfo.value.code == "bad_request"
            with pytest.raises(ServerError) as excinfo:
                client.call("update_forecast", risk=[1, 2])
            assert excinfo.value.code == "bad_request"
            with pytest.raises(ServerError) as excinfo:
                client.call("provision", k="many")
            assert excinfo.value.code == "bad_request"


class TestRiskInputValidation:
    """A non-finite or negative ``o_f`` is a ``bad_request`` that
    rolls back: the next read answers exactly as before the write."""

    @pytest.mark.parametrize(
        "risk, default",
        [
            ({}, float("nan")),
            ({}, float("inf")),
            ({"Teliasonera:Chicago, IL": -1e9}, 0.0),
        ],
        ids=["nan", "infinity", "negative"],
    )
    def test_bad_forecast_is_rejected_and_rolled_back(
        self, teliasonera, teliasonera_model, risk, default
    ):
        thread = ServerThread(
            RoutingSession(teliasonera, teliasonera_model), ServerConfig()
        )
        host, port = thread.start()
        pair = ("Teliasonera:New York, NY", "Teliasonera:Chicago, IL")
        try:
            with RiskRouteClient(host, port) as client:
                before = client.pair(*pair)
                fingerprint = client.last_fingerprint
                with pytest.raises(ServerError) as excinfo:
                    client.update_forecast(risk, default=default)
                assert excinfo.value.code == "bad_request"
                assert excinfo.value.message.startswith("o_f of PoP ")
                assert client.pair(*pair) == before
                assert client.last_fingerprint == fingerprint
                assert client.stats()["forecast_swaps"] == 0
        finally:
            thread.stop()


class _Slow:
    """Wrap a service's execute_batch with a fixed delay (on the
    service thread), to hold the worker busy deterministically."""

    def __init__(self, server, delay: float) -> None:
        self._orig = server.service.execute_batch
        self._delay = delay

    def __call__(self, batch):
        time.sleep(self._delay)
        return self._orig(batch)


class TestBackpressure:
    def test_overloaded_when_queue_full(self, diamond_network, diamond_model):
        thread = ServerThread(
            RoutingSession(diamond_network, diamond_model),
            ServerConfig(max_pending=1, request_timeout=0.0),
        )
        host, port = thread.start()
        try:
            thread.server.service.execute_batch = _Slow(thread.server, 0.4)
            line = (
                b'{"op": "route", "source": "diamond:west", '
                b'"target": "diamond:east"}\n'
            )
            s1, f1 = _raw_connect(host, port)
            s2, f2 = _raw_connect(host, port)
            s3, f3 = _raw_connect(host, port)
            try:
                f1.write(line)
                f1.flush()
                time.sleep(0.1)  # worker is now inside the slow batch
                f2.write(line)
                f2.flush()       # fills the 1-deep queue
                time.sleep(0.05)
                f3.write(line)
                f3.flush()       # must bounce
                reply3 = json.loads(f3.readline())
                assert reply3["ok"] is False
                assert reply3["error"]["code"] == "overloaded"
                # The admitted requests still complete.
                assert json.loads(f1.readline())["ok"] is True
                assert json.loads(f2.readline())["ok"] is True
            finally:
                s1.close(), s2.close(), s3.close()
            assert thread.server.stats.overloads == 1
        finally:
            thread.stop()

    def test_deadline_expiry_yields_timeout(
        self, diamond_network, diamond_model
    ):
        thread = ServerThread(
            RoutingSession(diamond_network, diamond_model),
            ServerConfig(request_timeout=0.15),
        )
        host, port = thread.start()
        try:
            thread.server.service.execute_batch = _Slow(thread.server, 0.5)
            line = (
                b'{"op": "route", "source": "diamond:west", '
                b'"target": "diamond:east"}\n'
            )
            s1, f1 = _raw_connect(host, port)
            try:
                f1.write(line)
                f1.flush()
                time.sleep(0.1)  # worker busy; next request will expire
                with RiskRouteClient(host, port, timeout=10) as client:
                    with pytest.raises(ServerError) as excinfo:
                        client.route("diamond:west", "diamond:east")
                    assert excinfo.value.code == "timeout"
            finally:
                s1.close()
            assert thread.server.stats.timeouts == 1
        finally:
            thread.stop()

    def test_graceful_drain_serves_admitted_work(
        self, diamond_network, diamond_model
    ):
        thread = ServerThread(
            RoutingSession(diamond_network, diamond_model),
            ServerConfig(request_timeout=0.0),
        )
        host, port = thread.start()
        thread.server.service.execute_batch = _Slow(thread.server, 0.3)
        sock, stream = _raw_connect(host, port)
        try:
            stream.write(
                b'{"id": 42, "op": "pair", "source": "diamond:west", '
                b'"target": "diamond:east"}\n'
            )
            stream.flush()
            time.sleep(0.05)  # ensure admission before the drain begins
            thread.stop(drain=True)  # blocks until the worker drained
            reply = json.loads(stream.readline())
            assert reply["ok"] is True
            assert reply["id"] == 42
        finally:
            sock.close()


class TestConcurrencyCorrectness:
    """The issue's acceptance criterion: 8 concurrent clients, byte-
    identical answers, provable coalescing."""

    N_CLIENTS = 8

    def test_concurrent_clients_match_direct_session(
        self, teliasonera, teliasonera_model
    ):
        pops = teliasonera.pop_ids()
        sources, targets = pops[:4], pops[4:10]
        queries = [(s, t) for s in sources for t in targets]
        # Expected answers from a direct session, computed before any
        # server traffic so nothing races the shared engine.
        session = RoutingSession(teliasonera, teliasonera_model)
        expected_pairs = {
            (s, t): pair_to_dict(session.pair(s, t)) for s, t in queries
        }
        expected_ratios = ratios_to_dict(session.all_pairs())

        thread = ServerThread(
            RoutingSession(teliasonera, teliasonera_model),
            ServerConfig(batch_linger=0.005),
        )
        host, port = thread.start()
        try:
            barrier = threading.Barrier(self.N_CLIENTS)
            failures = []

            def hammer(offset: int) -> None:
                try:
                    with RiskRouteClient(host, port, timeout=60) as client:
                        barrier.wait(timeout=30)
                        # Rotated order: every client starts somewhere
                        # else but they all overlap continuously.
                        plan = queries[offset:] + queries[:offset]
                        for s, t in plan:
                            served = client.pair(s, t)
                            if served != expected_pairs[(s, t)]:
                                failures.append((s, t, served))
                        served_ratios = client.ratios()
                        if served_ratios != expected_ratios:
                            failures.append(("ratios", served_ratios))
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    failures.append(("client-error", repr(exc)))

            workers = [
                threading.Thread(target=hammer, args=(i,))
                for i in range(self.N_CLIENTS)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
            assert not failures, failures[:3]
            with RiskRouteClient(host, port) as client:
                stats = client.stats()
            # 8 clients × 24 overlapping pair queries: the batches must
            # have shared sweeps — the coalescing proof the issue asks.
            assert stats["coalesced_sweeps"] >= 1
            assert stats["replies"] >= self.N_CLIENTS * len(queries)
        finally:
            thread.stop()

    def test_forecast_hot_swap_is_atomic(self, diamond_network):
        network = diamond_network
        graph = network.distance_graph()
        model_old = build_diamond_model()
        # Forecast spike on the north corridor: flips west->east from
        # the north route to the south route.
        of_new = {pop: 0.0 for pop in network.pop_ids()}
        of_new["diamond:north"] = 10.0
        model_new = model_old.with_forecast_risk(of_new)
        # Expected answers and fingerprints from standalone engines
        # (bypassing the shared registry, which the server is using).
        engine_old = RoutingEngine(graph, model_old)
        engine_new = RoutingEngine(graph, model_new)
        expected = {
            engine_old.risk_fingerprint: pair_to_dict(
                engine_old.route_pair("diamond:west", "diamond:east")
            ),
            engine_new.risk_fingerprint: pair_to_dict(
                engine_new.route_pair("diamond:west", "diamond:east")
            ),
        }
        assert len(expected) == 2  # the swap really changes the field
        old_path = expected[engine_old.risk_fingerprint]["riskroute"]["path"]
        new_path = expected[engine_new.risk_fingerprint]["riskroute"]["path"]
        assert "diamond:north" in old_path
        assert "diamond:south" in new_path

        thread = ServerThread(
            RoutingSession(network, model_old),
            ServerConfig(batch_linger=0.002),
        )
        host, port = thread.start()
        try:
            observed = []
            failures = []
            stop_flag = threading.Event()

            def hammer() -> None:
                try:
                    with RiskRouteClient(host, port, timeout=60) as client:
                        while not stop_flag.is_set():
                            served = client.pair(
                                "diamond:west", "diamond:east"
                            )
                            observed.append(
                                (client.last_fingerprint, served)
                            )
                except Exception as exc:  # noqa: BLE001
                    failures.append(repr(exc))

            workers = [
                threading.Thread(target=hammer) for _ in range(6)
            ]
            for worker in workers:
                worker.start()
            time.sleep(0.15)  # queries in flight on the old model
            with RiskRouteClient(host, port, timeout=60) as admin:
                result = admin.update_forecast(of_new)
            assert result["changed"] is True
            assert admin.last_fingerprint == engine_new.risk_fingerprint
            time.sleep(0.15)  # queries in flight on the new model
            stop_flag.set()
            for worker in workers:
                worker.join(timeout=60)
            assert not failures, failures[:3]
            assert len(observed) > 20
            fingerprints = {fp for fp, _ in observed}
            # Every reply was computed wholly under one advisory state:
            # its fingerprint names the model, and its payload is that
            # model's exact answer — never a mixture.
            assert fingerprints <= set(expected)
            for fingerprint, payload in observed:
                assert payload == expected[fingerprint]
            # The swap really happened mid-stream.
            assert fingerprints == set(expected)
        finally:
            thread.stop()


class TestCoalescingQueue:
    """Unit tests for batch formation and barriers."""

    @staticmethod
    def _item(op: str) -> PendingRequest:
        return PendingRequest(
            request=Request(op=op), writer=None, arrived=0.0
        )

    def test_bounded_admission(self):
        async def scenario():
            queue = CoalescingQueue(max_pending=2)
            assert await queue.submit(self._item("route")) == "ok"
            assert await queue.submit(self._item("route")) == "ok"
            assert await queue.submit(self._item("route")) == "overloaded"
            await queue.close()
            assert await queue.submit(self._item("route")) == "closed"
            assert len(queue) == 2

        asyncio.run(scenario())

    def test_control_ops_are_barriers(self):
        async def scenario():
            queue = CoalescingQueue()
            for op in ("route", "pair", "update_forecast", "route"):
                await queue.submit(self._item(op))
            first = await queue.next_batch()
            assert [i.request.op for i in first] == ["route", "pair"]
            second = await queue.next_batch()
            assert [i.request.op for i in second] == ["update_forecast"]
            third = await queue.next_batch()
            assert [i.request.op for i in third] == ["route"]
            await queue.close()
            assert await queue.next_batch() is None

        asyncio.run(scenario())

    def test_linger_widens_the_batch(self):
        async def scenario():
            queue = CoalescingQueue()
            await queue.submit(self._item("route"))

            async def late_join():
                await asyncio.sleep(0.02)
                await queue.submit(self._item("pair"))

            joiner = asyncio.ensure_future(late_join())
            batch = await queue.next_batch(linger=0.2)
            await joiner
            assert [i.request.op for i in batch] == ["route", "pair"]

        asyncio.run(scenario())

    def test_max_batch_cap(self):
        from repro.server.coalesce import MAX_BATCH

        async def scenario():
            queue = CoalescingQueue()
            for _ in range(MAX_BATCH + 1):
                await queue.submit(self._item("route"))
            assert len(await queue.next_batch()) == MAX_BATCH == 64
            assert len(await queue.next_batch()) == 1

        asyncio.run(scenario())


class TestServerStatsUnit:
    """Unit tests for the per-op latency windows."""

    def test_latency_bucketed_by_op(self):
        from repro.server.stats import ServerStats

        stats = ServerStats()
        stats.observe_latency(0.010, op="route")
        stats.observe_latency(0.030, op="route")
        stats.observe_latency(0.500, op="provision")
        stats.observe_latency(0.001)  # no op: blended window only
        snap = stats.snapshot(queue_depth=0, uptime=1.0)
        by_op = snap["latency_by_op"]
        assert set(by_op) == {"provision", "route"}
        assert by_op["route"]["count"] == 2
        assert by_op["provision"]["count"] == 1
        assert by_op["provision"]["p50_ms"] == pytest.approx(500.0)
        assert by_op["route"]["p50_ms"] == pytest.approx(30.0)
        # The blended histogram still sees every sample.
        assert snap["p99_ms"] == pytest.approx(500.0)

    def test_op_windows_are_bounded(self):
        from repro.server.stats import LATENCY_WINDOW, ServerStats

        stats = ServerStats()
        for i in range(LATENCY_WINDOW + 1):
            stats.observe_latency(float(i), op="ratios")
        snap = stats.snapshot(queue_depth=0, uptime=1.0)
        assert snap["latency_by_op"]["ratios"]["count"] == LATENCY_WINDOW
        assert LATENCY_WINDOW == 2048
