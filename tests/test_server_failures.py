"""Protocol edges under failure (issue satellites).

Covers the paths between a healthy round trip and a chaos storm:
the server dying mid-request, a client shipping an oversized line,
and a reply deadline expiring while the batch is already on the
executor.
"""

from __future__ import annotations

import json
import random
import socket
import time

import pytest

from repro import RoutingSession
from repro.server import (
    MAX_LINE_BYTES,
    RetryPolicy,
    RiskRouteClient,
    ServerConfig,
    ServerError,
    ServerThread,
)


class _Slow:
    """Wrap a service's execute_batch with a fixed delay (on the
    service thread), to hold the worker busy deterministically."""

    def __init__(self, server, delay: float) -> None:
        self._orig = server.service.execute_batch
        self._delay = delay

    def __call__(self, batch):
        time.sleep(self._delay)
        return self._orig(batch)


class TestServerKilledMidRequest:
    def test_raw_socket_sees_clean_close_not_hang(
        self, diamond_network, diamond_model
    ):
        thread = ServerThread(
            RoutingSession(diamond_network, diamond_model),
            ServerConfig(request_timeout=0.0),
        )
        host, port = thread.start()
        thread.server.service.execute_batch = _Slow(thread.server, 0.4)
        sock = socket.create_connection((host, port), timeout=10)
        stream = sock.makefile("rwb")
        try:
            stream.write(
                b'{"id": 9, "op": "route", "source": "diamond:west", '
                b'"target": "diamond:east"}\n'
            )
            stream.flush()
            time.sleep(0.1)  # request is in flight on the executor
            thread.stop(drain=False)  # hard kill: abandons queued work
            # The connection closes cleanly — EOF, not a hang and not a
            # half-written reply.
            assert stream.readline() == b""
        finally:
            sock.close()

    def test_client_maps_kill_to_connection_error(
        self, diamond_network, diamond_model
    ):
        thread = ServerThread(
            RoutingSession(diamond_network, diamond_model),
            ServerConfig(request_timeout=0.0),
        )
        host, port = thread.start()
        thread.server.service.execute_batch = _Slow(thread.server, 0.4)
        client = RiskRouteClient(host, port, timeout=10)

        import threading

        killer = threading.Timer(0.1, thread.stop, kwargs={"drain": False})
        killer.start()
        try:
            with pytest.raises(ConnectionError):
                client.route("diamond:west", "diamond:east")
            assert client.closed  # poisoned socket: next call reconnects
        finally:
            killer.cancel()
            client.close()
            thread.stop()


class TestOversizedRequestFromClient:
    def test_plain_client_gets_too_large_then_clean_error(
        self, diamond_network, diamond_model
    ):
        thread = ServerThread(RoutingSession(diamond_network, diamond_model))
        host, port = thread.start()
        try:
            with RiskRouteClient(host, port, timeout=10) as client:
                with pytest.raises(ServerError) as err:
                    client.route("diamond:west", "x" * MAX_LINE_BYTES)
                assert err.value.code == "too_large"
                # The server closed the oversized connection; the next
                # call fails cleanly as a connection error...
                with pytest.raises(ConnectionError):
                    client.route("diamond:west", "diamond:east")
                # ...and the one after that reconnects and succeeds.
                result = client.route("diamond:west", "diamond:east")
                assert result["path"][-1] == "diamond:east"
                assert client.reconnects == 1
        finally:
            thread.stop()

    def test_retry_client_heals_transparently_after_too_large(
        self, diamond_network, diamond_model
    ):
        thread = ServerThread(RoutingSession(diamond_network, diamond_model))
        host, port = thread.start()
        try:
            client = RiskRouteClient(
                host, port, timeout=10,
                retry=RetryPolicy(attempts=3),
                rng=random.Random(5),
            )
            with client:
                with pytest.raises(ServerError) as err:
                    client.route("diamond:west", "y" * MAX_LINE_BYTES)
                assert err.value.code == "too_large"
                # The dead connection is retried away without surfacing.
                result = client.route("diamond:west", "diamond:east")
                assert result["path"][0] == "diamond:west"
                assert client.reconnects == 1
        finally:
            thread.stop()


class TestDeadlineExpiresOnExecutor:
    def test_in_flight_request_still_gets_exactly_one_reply(
        self, diamond_network, diamond_model
    ):
        # The deadline guards *queue* time: once a batch is on the
        # executor its requests are served to completion — the client
        # gets the computed answer, never a trailing duplicate timeout.
        thread = ServerThread(
            RoutingSession(diamond_network, diamond_model),
            ServerConfig(request_timeout=0.15),
        )
        host, port = thread.start()
        thread.server.service.execute_batch = _Slow(thread.server, 0.4)
        sock = socket.create_connection((host, port), timeout=10)
        stream = sock.makefile("rwb")
        try:
            stream.write(
                b'{"id": 1, "op": "route", "source": "diamond:west", '
                b'"target": "diamond:east"}\n'
            )
            stream.flush()
            reply = json.loads(stream.readline())
            assert reply["id"] == 1
            assert reply["ok"] is True  # served despite expiring mid-run
            # Exactly one reply: nothing else arrives for this request.
            sock.settimeout(0.3)
            with pytest.raises(socket.timeout):
                stream.readline()
            assert thread.server.stats.timeouts == 0
        finally:
            sock.close()
            thread.stop()

    def test_queued_request_behind_stalled_batch_times_out(
        self, diamond_network, diamond_model
    ):
        # Companion case: a request that never reached the executor
        # before its deadline gets the typed timeout, exactly once.
        thread = ServerThread(
            RoutingSession(diamond_network, diamond_model),
            ServerConfig(request_timeout=0.15),
        )
        host, port = thread.start()
        thread.server.service.execute_batch = _Slow(thread.server, 0.5)
        line = (
            b'{"id": %d, "op": "route", "source": "diamond:west", '
            b'"target": "diamond:east"}\n'
        )
        s1 = socket.create_connection((host, port), timeout=10)
        f1 = s1.makefile("rwb")
        s2 = socket.create_connection((host, port), timeout=10)
        f2 = s2.makefile("rwb")
        try:
            f1.write(line % 1)
            f1.flush()
            time.sleep(0.1)  # worker now inside the slow batch
            f2.write(line % 2)
            f2.flush()       # queued; will expire before the worker frees
            assert json.loads(f1.readline())["ok"] is True
            reply2 = json.loads(f2.readline())
            assert reply2["ok"] is False
            assert reply2["error"]["code"] == "timeout"
            assert thread.server.stats.timeouts == 1
        finally:
            s1.close()
            s2.close()
            thread.stop()
