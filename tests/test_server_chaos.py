"""Chaos suite: seeded fault schedules against the daemon.

Drives the fault-injection plane (`repro/server/faults.py`) through the
supervision, rollback and self-healing-client machinery and asserts the
resilience invariants the issue names:

* every admitted request receives exactly one reply or a clean close —
  never a hung socket;
* the risk fingerprint never regresses to a half-applied state: a
  failed write (forecast swap or ingest) rolls back, and every reply's
  payload is the exact answer of the model its fingerprint names;
* a retried token-guarded write applies exactly once;
* a crashed worker is restarted, ``health`` flips to ``degraded`` with
  the reason, and heals back to ``ok`` on the next clean batch.

Fault schedules are deterministic: ``hits`` rules fire on exact visit
counts, ``rate`` rules draw from one seeded RNG.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import random

import pytest

from repro import RoutingSession
from repro.engine import RoutingEngine
from repro.server import (
    FaultPlane,
    FaultRule,
    RetryPolicy,
    RiskRouteClient,
    ServerConfig,
    ServerError,
    ServerThread,
)
from repro.server.coalesce import MAX_BATCH
from repro.server.protocol import pair_to_dict, route_to_dict
from tests.conftest import build_diamond_model


def _retry(attempts: int = 5) -> RetryPolicy:
    return RetryPolicy(attempts=attempts, budget=30.0)


def _serve(network, model, faults, **config):
    thread = ServerThread(
        RoutingSession(network, model),
        ServerConfig(faults=faults, **config),
    )
    thread.start()
    return thread


class TestFaultPlaneUnit:
    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule("not_a_site")
        with pytest.raises(ValueError):
            FaultRule("partial_write", rate=1.5)
        with pytest.raises(ValueError):
            FaultRule("partial_write", hits=(0,))
        with pytest.raises(ValueError):
            FaultRule("executor_stall", delay=-1.0)

    def test_hits_fire_on_exact_visits(self):
        plane = FaultPlane([FaultRule("worker_exception", hits=(2, 4))])
        fired = [
            plane.check("worker_exception") is not None for _ in range(5)
        ]
        assert fired == [False, True, False, True, False]
        assert plane.visits["worker_exception"] == 5
        assert plane.fires["worker_exception"] == 2
        assert plane.snapshot() == {
            "worker_exception": {"visits": 5, "fires": 2}
        }

    def test_limit_caps_fires(self):
        plane = FaultPlane(
            [FaultRule("connection_reset", rate=1.0, limit=2)]
        )
        fired = [
            plane.check("connection_reset") is not None for _ in range(5)
        ]
        assert fired == [True, True, False, False, False]

    def test_rate_is_seed_deterministic(self):
        seq = []
        for _ in range(2):
            plane = FaultPlane(
                [FaultRule("partial_write", rate=0.4)], seed=99
            )
            seq.append(
                tuple(
                    plane.check("partial_write") is not None
                    for _ in range(32)
                )
            )
        assert seq[0] == seq[1]
        assert any(seq[0]) and not all(seq[0])

    def test_unknown_site_check_raises(self):
        with pytest.raises(ValueError):
            FaultPlane().check("meteor_strike")

    def test_disabled_plane(self):
        plane = FaultPlane()
        assert plane.check("partial_write") is None


class TestWorkerSupervision:
    def test_crash_degrades_restarts_and_heals(
        self, diamond_network, diamond_model
    ):
        # Visit counting: every queued batch (queries AND control ops)
        # visits worker_exception once; health bypasses the queue.
        faults = FaultPlane([FaultRule("worker_exception", hits=(2,))])
        thread = _serve(diamond_network, diamond_model, faults)
        try:
            host, port = thread.address
            with RiskRouteClient(host, port) as client:
                ok = client.route("diamond:west", "diamond:east")  # batch 1
                with pytest.raises(ServerError) as err:
                    client.route("diamond:west", "diamond:east")   # batch 2
                assert err.value.code == "internal"
                assert "crashed" in err.value.message
                health = client.health()
                assert health["status"] == "degraded"
                assert "worker_exception" in health["degraded_reason"]
                assert health["worker_restarts"] == 1
                # The restarted worker serves the same answer.
                again = client.route("diamond:west", "diamond:east")
                assert again == ok
                assert client.health()["status"] == "ok"  # healed
                stats = client.stats()
            assert stats["worker_crashes"] == 1
            assert stats["worker_restarts"] == 1
            assert stats["degraded_reason"] is None
            assert stats["faults"]["worker_exception"]["fires"] == 1
        finally:
            thread.stop()

    def test_crashed_batch_gets_exactly_one_reply_each(
        self, diamond_network, diamond_model
    ):
        faults = FaultPlane([FaultRule("worker_exception", hits=(1,))])
        thread = _serve(
            diamond_network, diamond_model, faults, batch_linger=0.01
        )
        try:
            host, port = thread.address
            sock = socket.create_connection((host, port), timeout=10)
            stream = sock.makefile("rwb")
            try:
                line = (
                    b'{"id": %d, "op": "route", "source": "diamond:west", '
                    b'"target": "diamond:east"}\n'
                )
                for request_id in (1, 2, 3):
                    stream.write(line % request_id)
                stream.flush()
                replies = [json.loads(stream.readline()) for _ in range(3)]
                # Exactly one reply per pipelined request, ids intact;
                # whichever batch the crash hit answered `internal`, any
                # requests in a later batch were served by the restarted
                # worker — nothing hangs and nothing is answered twice.
                assert sorted(r["id"] for r in replies) == [1, 2, 3]
                internal = [r for r in replies if not r["ok"]]
                assert internal, "the injected crash produced no error"
                for reply in internal:
                    assert reply["error"]["code"] == "internal"
                # The connection is still alive for the next request.
                stream.write(line % 4)
                stream.flush()
                final = json.loads(stream.readline())
                assert final["id"] == 4 and final["ok"] is True
            finally:
                sock.close()
            assert thread.server.stats.worker_crashes == 1
        finally:
            thread.stop()


class TestConnectionFaults:
    def test_reset_heals_via_retry_policy(
        self, diamond_network, diamond_model
    ):
        expected = route_to_dict(
            RoutingSession(diamond_network, diamond_model).route(
                "diamond:west", "diamond:east"
            )
        )
        # Visit counting: one visit per request line read by a handler.
        faults = FaultPlane([FaultRule("connection_reset", hits=(2,))])
        thread = _serve(diamond_network, diamond_model, faults)
        try:
            host, port = thread.address
            client = RiskRouteClient(
                host, port, timeout=10,
                retry=_retry(), rng=random.Random(1),
            )
            with client:
                for _ in range(3):
                    assert (
                        client.route("diamond:west", "diamond:east")
                        == expected
                    )
            assert client.reconnects == 1
            assert thread.server.config.faults.fires["connection_reset"] == 1
        finally:
            thread.stop()

    def test_partial_write_marks_client_closed_then_reconnects(
        self, diamond_network, diamond_model
    ):
        # Satellite: a truncated/garbage reply line must surface as
        # ConnectionError and poison the socket, not leak a raw
        # json.JSONDecodeError over a half-read stream.
        faults = FaultPlane([FaultRule("partial_write", hits=(1,))])
        thread = _serve(diamond_network, diamond_model, faults)
        try:
            host, port = thread.address
            with RiskRouteClient(host, port, timeout=10) as client:
                with pytest.raises(ConnectionError) as err:
                    client.route("diamond:west", "diamond:east")
                assert "malformed reply" in str(err.value)
                assert client.closed
                # The next call reconnects and succeeds.
                result = client.route("diamond:west", "diamond:east")
                assert result["path"][0] == "diamond:west"
                assert client.reconnects == 1
        finally:
            thread.stop()

    def test_delayed_write_delivers_one_intact_reply(
        self, diamond_network, diamond_model
    ):
        faults = FaultPlane(
            [FaultRule("delayed_write", hits=(1,), delay=0.1)]
        )
        thread = _serve(diamond_network, diamond_model, faults)
        try:
            host, port = thread.address
            started = time.monotonic()
            with RiskRouteClient(host, port, timeout=10) as client:
                result = client.route("diamond:west", "diamond:east")
            assert time.monotonic() - started >= 0.1
            assert result["path"][0] == "diamond:west"
            assert thread.server.config.faults.fires["delayed_write"] == 1
        finally:
            thread.stop()

    def test_executor_stall_does_not_corrupt_replies(
        self, diamond_network, diamond_model
    ):
        faults = FaultPlane(
            [FaultRule("executor_stall", hits=(1,), delay=0.2)]
        )
        thread = _serve(diamond_network, diamond_model, faults)
        try:
            host, port = thread.address
            with RiskRouteClient(host, port, timeout=10) as client:
                result = client.route("diamond:west", "diamond:east")
                assert result["path"][-1] == "diamond:east"
            assert thread.server.config.faults.fires["executor_stall"] == 1
        finally:
            thread.stop()


class TestTransactionalSwap:
    @staticmethod
    def _spiked(network):
        of_new = {pop: 0.0 for pop in network.pop_ids()}
        of_new["diamond:north"] = 10.0
        return of_new

    def test_failed_swap_rolls_back_field_and_fingerprint(
        self, diamond_network
    ):
        network = diamond_network
        graph = network.distance_graph()
        model_old = build_diamond_model()
        of_new = self._spiked(network)
        model_new = model_old.with_forecast_risk(of_new)
        engine_old = RoutingEngine(graph, model_old)
        engine_new = RoutingEngine(graph, model_new)
        fp_old = engine_old.risk_fingerprint
        fp_new = engine_new.risk_fingerprint
        expected = {
            fp_old: pair_to_dict(
                engine_old.route_pair("diamond:west", "diamond:east")
            ),
            fp_new: pair_to_dict(
                engine_new.route_pair("diamond:west", "diamond:east")
            ),
        }
        assert fp_old != fp_new

        # The first swap fails *after* the new model applied — the
        # worst mid-apply point — and must roll back completely.
        faults = FaultPlane([FaultRule("apply_update", hits=(1,))])
        thread = _serve(network, model_old, faults)
        try:
            host, port = thread.address
            with RiskRouteClient(host, port, timeout=10) as client:
                before = client.pair("diamond:west", "diamond:east")
                assert client.last_fingerprint == fp_old
                assert before == expected[fp_old]

                with pytest.raises(ServerError) as err:
                    client.update_forecast(of_new, token="swap-1")
                assert err.value.code == "internal"

                # Rollback: the fingerprint did not move, the served
                # answer is still exactly the old model's.
                after_fail = client.pair("diamond:west", "diamond:east")
                assert client.last_fingerprint == fp_old
                assert after_fail == expected[fp_old]
                assert client.stats()["forecast_swaps"] == 0

                # Retrying the same token now applies — exactly once.
                result = client.update_forecast(of_new, token="swap-1")
                assert result == {"changed": True, "duplicate": False}
                assert client.last_fingerprint == fp_new
                after = client.pair("diamond:west", "diamond:east")
                assert after == expected[fp_new]

                # A replay of the applied token is a no-op duplicate.
                replay = client.update_forecast(of_new, token="swap-1")
                assert replay == {"changed": True, "duplicate": True}
                assert client.last_fingerprint == fp_new
                stats = client.stats()
            assert stats["forecast_swaps"] == 1
            assert stats["risk_fingerprint"] == fp_new
        finally:
            thread.stop()

    def test_torn_reply_retry_applies_token_once(self, diamond_network):
        network = diamond_network
        model_old = build_diamond_model()
        of_new = self._spiked(network)
        # The update's own reply (first write of the session) is torn;
        # the retrying client re-sends, and the token ledger answers the
        # duplicate without a second swap.
        faults = FaultPlane([FaultRule("partial_write", hits=(1,))])
        thread = _serve(network, model_old, faults)
        try:
            host, port = thread.address
            client = RiskRouteClient(
                host, port, timeout=10,
                retry=_retry(), rng=random.Random(7),
            )
            with client:
                result = client.update_forecast(of_new, token="tok-7")
                assert result["changed"] is True
                assert result["duplicate"] is True  # first apply's reply died
                assert client.reconnects == 1
                stats = client.stats()
            assert stats["forecast_swaps"] == 1
        finally:
            thread.stop()

    def test_untokened_update_is_not_retried_on_drop(
        self, diamond_network, diamond_model
    ):
        faults = FaultPlane([FaultRule("partial_write", hits=(1,))])
        thread = _serve(diamond_network, diamond_model, faults)
        try:
            host, port = thread.address
            client = RiskRouteClient(
                host, port, timeout=10,
                retry=_retry(), rng=random.Random(3),
            )
            with client:
                # call() with an explicit token=None stays untokened —
                # a drop must surface, not silently re-send the write.
                with pytest.raises(ConnectionError):
                    client.call(
                        "update_forecast",
                        risk={"diamond:north": 1.0},
                    )
        finally:
            thread.stop()


class TestTransactionalIngest:
    """``ingest`` takes the same write path as ``update_forecast``:
    it runs under any fault plane and rolls back through the one
    ``apply_update`` site."""

    EVENTS = [
        {"event_type": "fema-tornado", "lat": 37.5, "lon": -97.5,
         "year": 2005},
    ]

    def test_ingest_applies_under_a_plane_without_write_rules(
        self, diamond_network, diamond_model
    ):
        faults = FaultPlane([FaultRule("partial_write", hits=(99,))])
        thread = _serve(diamond_network, diamond_model, faults)
        try:
            host, port = thread.address
            with RiskRouteClient(host, port, timeout=60) as client:
                before = client.subscribe(since=0)["fingerprint"]
                reply = client.ingest(self.EVENTS, token="plain-1")
                assert reply["changed"] is True
                assert reply["duplicate"] is False
                assert client.last_fingerprint != before
                assert client.stats()["ingests"] == 1
            assert faults.visits["apply_update"] == 1
        finally:
            thread.stop()

    def test_failed_ingest_rolls_back_then_retry_applies_once(
        self, diamond_network, diamond_model
    ):
        clean = _serve(diamond_network, build_diamond_model(), None)
        try:
            host, port = clean.address
            with RiskRouteClient(host, port, timeout=60) as client:
                client.ingest(self.EVENTS, token="ing-1")
                never_failed = client.last_fingerprint
        finally:
            clean.stop()

        faults = FaultPlane([FaultRule("apply_update", hits=(1,))])
        thread = _serve(diamond_network, diamond_model, faults)
        try:
            host, port = thread.address
            with RiskRouteClient(host, port, timeout=60) as client:
                before = client.subscribe(since=0)
                with pytest.raises(ServerError) as err:
                    client.ingest(self.EVENTS, token="ing-1")
                assert err.value.code == "internal"

                # Rollback: fingerprint, counter and changelog unmoved.
                after_fail = client.subscribe(since=0)
                assert after_fail["fingerprint"] == before["fingerprint"]
                assert after_fail["version"] == before["version"] == 0
                assert client.stats()["ingests"] == 0

                # The same token now applies — exactly once.
                result = client.ingest(self.EVENTS, token="ing-1")
                assert result["changed"] is True
                assert result["duplicate"] is False
                assert client.last_fingerprint == never_failed
                replay = client.ingest(self.EVENTS, token="ing-1")
                assert replay == {"changed": True, "duplicate": True}
                assert client.last_fingerprint == never_failed
                assert client.subscribe(since=0)["version"] == 1
                assert client.stats()["ingests"] == 1
            assert faults.fires["apply_update"] == 1
        finally:
            thread.stop()


class TestSeededMixedChaos:
    """Four retrying clients under a seeded storm of resets, torn
    writes and worker crashes: every call either returns the one true
    answer or a typed `internal` crash error — nothing hangs, nothing
    mixes models."""

    N_CLIENTS = 4
    CALLS_PER_CLIENT = 15

    def test_invariants_hold_under_fault_storm(
        self, diamond_network, diamond_model
    ):
        expected = pair_to_dict(
            RoutingSession(diamond_network, diamond_model).pair(
                "diamond:west", "diamond:east"
            )
        )
        faults = FaultPlane(
            [
                FaultRule("connection_reset", rate=0.06),
                FaultRule("partial_write", rate=0.06),
                FaultRule("worker_exception", rate=0.04, limit=3),
            ],
            seed=1234,
        )
        thread = _serve(
            diamond_network, diamond_model, faults, batch_linger=0.002
        )
        try:
            host, port = thread.address
            wrong_payloads = []
            hard_failures = []
            crash_errors = []

            def hammer(seed: int) -> None:
                try:
                    client = RiskRouteClient(
                        host, port, timeout=15,
                        retry=_retry(attempts=8),
                        rng=random.Random(seed),
                    )
                    with client:
                        for _ in range(self.CALLS_PER_CLIENT):
                            try:
                                served = client.pair(
                                    "diamond:west", "diamond:east"
                                )
                            except ServerError as exc:
                                if exc.code == "internal":
                                    crash_errors.append(exc.message)
                                    continue
                                raise
                            if served != expected:
                                wrong_payloads.append(served)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    hard_failures.append(repr(exc))

            workers = [
                threading.Thread(target=hammer, args=(seed,))
                for seed in range(self.N_CLIENTS)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
            assert not any(w.is_alive() for w in workers), "client hung"
            assert not hard_failures, hard_failures[:3]
            assert not wrong_payloads, wrong_payloads[:3]
            stats_server = thread.server.stats
            # Crashes were survived, not fatal: the server kept serving.
            assert stats_server.worker_crashes == (
                stats_server.worker_restarts
            )
            assert len(crash_errors) <= (
                stats_server.worker_crashes * MAX_BATCH
            )
        finally:
            thread.stop()
