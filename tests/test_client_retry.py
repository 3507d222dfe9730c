"""Unit tests for the self-healing client: RetryPolicy and reconnect.

A tiny scripted TCP server plays the daemon: each received request
consumes one scripted action (a valid reply, garbage bytes, an error
code, or a hard close), letting every client-side recovery path run
deterministically without a real engine.
"""

from __future__ import annotations

import json
import random
import socket
import threading
from collections import deque

import pytest

from repro.server import RetryPolicy, RiskRouteClient, ServerError
from repro.server.client import RETRY_CODES


class ScriptedServer:
    """Serves scripted actions, one per received request line.

    Actions: ``"ok"`` (valid reply echoing the request id),
    ``"garbage"`` (unparseable line), ``"truncated"`` (half a JSON
    reply, then close), ``"close"`` (EOF without a reply),
    ``"overloaded"`` / ``"shutting_down"`` (typed error replies).
    After the script is exhausted every request is answered ``"ok"``.
    """

    def __init__(self, script):
        self._script = deque(script)
        self.requests = []  # decoded payloads, in arrival order
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.port = self._listener.getsockname()[1]
        self._alive = True
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while self._alive:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def _handle(self, conn):
        stream = conn.makefile("rwb")
        try:
            while True:
                line = stream.readline()
                if not line:
                    return
                payload = json.loads(line)
                self.requests.append(payload)
                action = self._script.popleft() if self._script else "ok"
                if action == "ok":
                    reply = {
                        "id": payload.get("id"),
                        "ok": True,
                        "result": {"served": len(self.requests)},
                        "fingerprint": "fp-scripted",
                    }
                    stream.write(json.dumps(reply).encode() + b"\n")
                    stream.flush()
                elif action == "garbage":
                    stream.write(b"%%% not json at all %%%\n")
                    stream.flush()
                elif action == "truncated":
                    stream.write(b'{"id": 1, "ok": true, "resu')
                    stream.flush()
                    return
                elif action == "close":
                    return
                else:  # a wire error code
                    reply = {
                        "id": payload.get("id"),
                        "ok": False,
                        "error": {"code": action, "message": "scripted"},
                    }
                    stream.write(json.dumps(reply).encode() + b"\n")
                    stream.flush()
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def stop(self):
        self._alive = False
        try:
            self._listener.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()


def _client(server, retry=None, seed=0):
    return RiskRouteClient(
        "127.0.0.1", server.port, timeout=5,
        retry=retry, rng=random.Random(seed),
    )


def _policy(**overrides):
    base = dict(attempts=4, budget=10.0)
    base.update(overrides)
    return RetryPolicy(**base)


class TestRetryPolicyUnit:
    def test_delay_is_jittered_and_capped(self):
        # 50 ms doubling per retry, capped at 2 s, half of it jittered.
        policy = RetryPolicy()
        rng = random.Random(42)
        for retry_index, raw in (
            (0, 0.05), (1, 0.1), (5, 1.6), (6, 2.0), (10, 2.0)
        ):
            for _ in range(20):
                delay = policy.delay(retry_index, rng)
                assert raw * 0.5 <= delay <= raw

    def test_validation(self):
        with pytest.raises(ValueError, match="attempts"):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError, match="budget"):
            RetryPolicy(budget=0.0)


class TestGarbageReplies:
    def test_garbage_reply_maps_to_connection_error(self):
        # The satellite fix: a garbage line must not leak a raw
        # json.JSONDecodeError, and must poison the socket.
        with ScriptedServer(["garbage"]) as server:
            client = _client(server)
            with pytest.raises(ConnectionError) as err:
                client.route("a", "b")
            assert "malformed reply" in str(err.value)
            assert client.closed
            # Reconnect on the next call (script exhausted -> "ok").
            result = client.route("a", "b")
            assert result == {"served": 2}
            assert client.reconnects == 1
            client.close()

    def test_truncated_reply_maps_to_connection_error(self):
        with ScriptedServer(["truncated"]) as server:
            client = _client(server)
            with pytest.raises(ConnectionError):
                client.route("a", "b")
            assert client.closed
            client.close()

    def test_eof_maps_to_connection_error(self):
        with ScriptedServer(["close"]) as server:
            client = _client(server)
            with pytest.raises(ConnectionError) as err:
                client.route("a", "b")
            assert "closed the connection" in str(err.value)
            assert client.closed
            client.close()


class TestRetrySemantics:
    def test_overloaded_is_retried_under_policy(self):
        with ScriptedServer(["overloaded", "overloaded", "ok"]) as server:
            with _client(server, retry=_policy()) as client:
                assert client.route("a", "b") == {"served": 3}

    def test_overloaded_raises_without_policy(self):
        with ScriptedServer(["overloaded"]) as server:
            with _client(server) as client:
                with pytest.raises(ServerError) as err:
                    client.route("a", "b")
                assert err.value.code == "overloaded"

    def test_shutting_down_is_retried_under_policy(self):
        with ScriptedServer(["shutting_down", "ok"]) as server:
            with _client(server, retry=_policy()) as client:
                assert client.route("a", "b") == {"served": 2}

    def test_shard_unavailable_is_retried_under_policy(self):
        # A replicated pool emits shard_unavailable only when every
        # replica of a *read* died inside one batch window; the shards
        # are respawned before the reply goes out, so the retry is
        # always safe — and in RETRY_CODES.
        assert "shard_unavailable" in RETRY_CODES
        with ScriptedServer(["shard_unavailable", "ok"]) as server:
            with _client(server, retry=_policy()) as client:
                assert client.route("a", "b") == {"served": 2}
            assert len(server.requests) == 2

    def test_shard_unavailable_raises_without_policy(self):
        with ScriptedServer(["shard_unavailable"]) as server:
            with _client(server) as client:
                with pytest.raises(ServerError) as err:
                    client.route("a", "b")
                assert err.value.code == "shard_unavailable"

    def test_non_transient_error_is_never_retried(self):
        with ScriptedServer(["unknown_node", "ok"]) as server:
            with _client(server, retry=_policy()) as client:
                with pytest.raises(ServerError) as err:
                    client.route("a", "b")
                assert err.value.code == "unknown_node"
            assert len(server.requests) == 1

    def test_drop_is_retried_for_reads(self):
        with ScriptedServer(["close", "ok"]) as server:
            with _client(server, retry=_policy()) as client:
                assert client.route("a", "b") == {"served": 2}
                assert client.reconnects == 1

    def test_drop_is_not_retried_for_untokened_write(self):
        with ScriptedServer(["close", "ok"]) as server:
            with _client(server, retry=_policy()) as client:
                with pytest.raises(ConnectionError):
                    client.call("update_forecast", risk={"a": 1.0})
            assert len(server.requests) == 1

    def test_drop_is_retried_for_tokened_write(self):
        with ScriptedServer(["close", "ok"]) as server:
            with _client(server, retry=_policy()) as client:
                result = client.call(
                    "update_forecast", risk={"a": 1.0}, token="t-1"
                )
                assert result == {"served": 2}
            # Both attempts carried the same token.
            assert [r["token"] for r in server.requests] == ["t-1", "t-1"]

    def test_attempts_exhausted_reraises_last_error(self):
        with ScriptedServer(["overloaded"] * 10) as server:
            with _client(server, retry=_policy(attempts=3)) as client:
                with pytest.raises(ServerError) as err:
                    client.route("a", "b")
                assert err.value.code == "overloaded"
            assert len(server.requests) == 3

    def test_budget_exhaustion_stops_retrying(self):
        # The first backoff is at least 25 ms.
        policy = _policy(attempts=10, budget=0.01)
        with ScriptedServer(["overloaded"] * 10) as server:
            with _client(server, retry=policy) as client:
                with pytest.raises(ServerError):
                    client.route("a", "b")
            # The first backoff alone would blow the budget.
            assert len(server.requests) == 1


class TestAutoToken:
    def test_update_forecast_generates_token_under_policy(self):
        with ScriptedServer([]) as server:
            with _client(server, retry=_policy(), seed=7) as client:
                client.update_forecast({"a": 0.5})
            token = server.requests[0]["token"]
            assert token.startswith("auto-")

    def test_auto_token_is_seed_deterministic(self):
        tokens = []
        for _ in range(2):
            with ScriptedServer([]) as server:
                with _client(server, retry=_policy(), seed=7) as client:
                    client.update_forecast({"a": 0.5})
                tokens.append(server.requests[0]["token"])
        assert tokens[0] == tokens[1]

    def test_no_token_without_policy(self):
        with ScriptedServer([]) as server:
            with _client(server) as client:
                client.update_forecast({"a": 0.5})
            assert "token" not in server.requests[0]

    def test_explicit_token_wins(self):
        with ScriptedServer([]) as server:
            with _client(server, retry=_policy()) as client:
                client.update_forecast({"a": 0.5}, token="mine")
            assert server.requests[0]["token"] == "mine"


class TestFingerprintTracking:
    def test_last_fingerprint_updates_on_success(self):
        with ScriptedServer([]) as server:
            with _client(server) as client:
                client.route("a", "b")
                assert client.last_fingerprint == "fp-scripted"
