"""Replicated read shards: parity, failover, degraded states.

The replication issue's acceptance tests, over real spawned shard
processes:

* a ``replicas=2`` server's replies are *identical* (payload and
  fingerprint) to the single-process server, whichever replica served
  them;
* a shard killed mid-batch (injected ``shard_exit``) at ``replicas=2``
  yields **zero client-visible errors**: every read is answered
  exactly once, correctly, by the surviving replica (the transparent
  one-hop failover), while ``replicas=1`` keeps today's typed
  ``internal`` errors (see ``test_server_shards.TestShardChaos``);
* when the failover hop dies too (injected ``replica_crash``), the
  reads get typed, retry-safe ``shard_unavailable`` errors — and a
  client under the default :class:`RetryPolicy` rides through the
  respawn window without surfacing anything;
* a shard that hangs (SIGSTOP) rather than dies is declared lost by
  the batch watchdog (``SHARD_TIMEOUT``) and handled like a crash:
  failover at ``replicas=2``, typed ``internal`` errors for its keys
  only at ``replicas=1``;
* forecast swaps stay barriered under replication.

Every server test runs under pytest-timeout so a wedged pipe fails
fast instead of hanging the suite.
"""

from __future__ import annotations

import json
import os
import signal
import socket
from itertools import permutations

import pytest

from repro import RoutingSession
from repro.server import (
    FaultPlane,
    FaultRule,
    RetryPolicy,
    RiskRouteClient,
    ServerConfig,
    ServerError,
    ServerThread,
)
from repro.server.protocol import PROTOCOL_VERSION, Request, pair_to_dict
from repro.server.client import RETRY_CODES
from repro.server.shards import replicas_of
from tests.conftest import build_diamond_model, build_diamond_network

WEST, EAST = "diamond:west", "diamond:east"
POPS = ("diamond:west", "diamond:east", "diamond:north", "diamond:south")


def _session() -> RoutingSession:
    return RoutingSession(build_diamond_network(), build_diamond_model())


def _pair_request(source: str, target: str) -> Request:
    return Request(
        op="pair", id=1, params={"source": source, "target": target},
        v=PROTOCOL_VERSION,
    )


@pytest.mark.timeout(180)
class TestReplicatedParity:
    def test_replicated_replies_match_single_process(self):
        direct = _session()
        expected = {
            (s, t): pair_to_dict(direct.pair(s, t))
            for s, t in permutations(POPS, 2)
        }
        direct_fp = direct.engine.risk_fingerprint
        direct_ratios = None

        def serve_and_collect(**kwargs):
            thread = ServerThread(
                _session(), ServerConfig(batch_linger=0.002, **kwargs)
            )
            host, port = thread.start()
            try:
                with RiskRouteClient(host, port) as client:
                    replies = {
                        (s, t): client.pair(s, t)
                        for s, t in permutations(POPS, 2)
                    }
                    ratios = client.ratios()
                    fingerprint = client.last_fingerprint
            finally:
                thread.stop()
            return replies, ratios, fingerprint

        single = serve_and_collect(shards=0)
        replicated = serve_and_collect(shards=2, replicas=2)
        assert replicated == single
        assert replicated[0] == expected
        assert replicated[2] == direct_fp

    def test_replicated_load_spreads_the_hot_pair(self):
        # The celebrity-pair property at integration scale: a burst of
        # the *same* pair is split across both of its replicas instead
        # of pinning one shard (power-of-two-choices sees the items
        # already assigned in the batch and balances the remainder).
        thread = ServerThread(
            _session(),
            ServerConfig(batch_linger=0.05, shards=2, replicas=2),
        )
        host, port = thread.start()
        try:
            expected = pair_to_dict(_session().pair(WEST, EAST))
            count = 20
            sock = socket.create_connection((host, port), timeout=60)
            stream = sock.makefile("rwb")
            for i in range(count):
                stream.write(json.dumps({
                    "id": i, "op": "pair", "v": 2,
                    "source": WEST, "target": EAST,
                }).encode() + b"\n")
            stream.flush()
            replies = [json.loads(stream.readline()) for _ in range(count)]
            sock.close()
            assert sorted(r["id"] for r in replies) == list(range(count))
            for reply in replies:
                assert reply["ok"] and reply["result"] == expected
            with RiskRouteClient(host, port) as client:
                stats = client.stats()
        finally:
            thread.stop()
        batches = [
            entry["batches"] for entry in stats["shards"]["per_shard"]
        ]
        # Both replicas served a slice of the hot-pair burst (strict
        # single-owner affinity would leave one shard at zero batches,
        # as the replicas=1 stats test pins).
        assert all(served > 0 for served in batches), batches

    def test_stats_and_health_expose_replication(self):
        thread = ServerThread(
            _session(),
            ServerConfig(batch_linger=0.002, shards=2, replicas=2),
        )
        host, port = thread.start()
        try:
            with RiskRouteClient(host, port) as client:
                client.pair(WEST, EAST)
                stats = client.stats()
                health = client.health()
        finally:
            thread.stop()
        assert health["shards"] == {"count": 2, "alive": 2, "replicas": 2}
        shards = stats["shards"]
        assert shards["replicas"] == 2
        assert shards["crashes"] == 0
        assert shards["failovers"] == 0
        assert shards["unavailable"] == 0
        assert stats["read_failovers"] == 0


@pytest.mark.timeout(180)
class TestTransparentFailover:
    def test_mid_batch_crash_is_invisible_to_read_clients(self):
        """The headline acceptance test: SIGKILL-equivalent loss of a
        shard mid-batch at replicas=2 produces zero error replies —
        every read is answered exactly once by the surviving replica.
        """
        plane = FaultPlane([FaultRule("shard_exit", hits=(1,))])
        thread = ServerThread(
            _session(),
            ServerConfig(
                batch_linger=0.05, shards=2, replicas=2, faults=plane
            ),
        )
        host, port = thread.start()
        try:
            requests = {
                i: (s, t)
                for i, (s, t) in enumerate(permutations(POPS, 2))
            }
            # Pipeline everything in one flush so the requests form one
            # batch spanning both shards; the first shard sent to dies
            # holding its whole group.
            sock = socket.create_connection((host, port), timeout=60)
            stream = sock.makefile("rwb")
            for i, (s, t) in requests.items():
                stream.write(json.dumps({
                    "id": i, "op": "pair", "v": 2,
                    "source": s, "target": t,
                }).encode() + b"\n")
            stream.flush()
            replies = [json.loads(stream.readline()) for _ in requests]
            sock.close()

            # Exactly one reply per request id — and every one of them
            # ok: the dead shard's reads were re-dispatched, not failed.
            assert sorted(r["id"] for r in replies) == sorted(requests)
            assert [r for r in replies if not r["ok"]] == []
            reference = _session()
            for reply in replies:
                s, t = requests[reply["id"]]
                assert reply["result"] == pair_to_dict(reference.pair(s, t))

            with RiskRouteClient(host, port) as client:
                # The crash still surfaces operationally: degraded
                # health (a shard was lost), crash/restart accounting,
                # and the failover counter — then a clean batch heals.
                health = client.health()
                assert health["status"] == "degraded"
                assert "shard" in health["degraded_reason"]
                client.pair(WEST, EAST)
                health = client.health()
                assert health["status"] == "ok"
                assert health["shards"]["alive"] == 2
                stats = client.stats()
            assert stats["shards"]["crashes"] == 1
            assert stats["shards"]["restarts"] == 1
            assert stats["shards"]["failovers"] >= 1
            assert stats["shards"]["unavailable"] == 0
            assert stats["read_failovers"] >= 1
            assert plane.fires["shard_exit"] == 1
        finally:
            thread.stop()

    def test_both_replicas_down_is_typed_and_retry_safe(self):
        """One hop only: when the failover target dies too, the read
        gets a typed ``shard_unavailable`` (never ``internal``, never a
        hang) — and the default RetryPolicy rides through the respawn.
        """
        plane = FaultPlane([
            FaultRule("shard_exit", hits=(1,)),
            FaultRule("replica_crash", hits=(1,)),
        ])
        thread = ServerThread(
            _session(),
            ServerConfig(
                batch_linger=0.002, shards=2, replicas=2, faults=plane
            ),
        )
        host, port = thread.start()
        try:
            with RiskRouteClient(host, port) as client:
                with pytest.raises(ServerError) as err:
                    client.pair(WEST, EAST)
                assert err.value.code == "shard_unavailable"
                # Both shards were respawned synchronously before the
                # error reply went out: a bare retry succeeds.
                expected = pair_to_dict(_session().pair(WEST, EAST))
                assert client.pair(WEST, EAST) == expected
                stats = client.stats()
            assert stats["shards"]["crashes"] == 2
            assert stats["shards"]["unavailable"] >= 1
            assert plane.fires["shard_exit"] == 1
            assert plane.fires["replica_crash"] == 1

            # The same window under the default retry policy:
            # invisible.  (The second server's replica_crash site has
            # never been visited, so its first visit — the failover
            # send of the second query — is the one that fires.)
            plane2 = FaultPlane([
                FaultRule("shard_exit", hits=(2,)),
                FaultRule("replica_crash", hits=(1,)),
            ])
        finally:
            thread.stop()

        thread = ServerThread(
            _session(),
            ServerConfig(
                batch_linger=0.002, shards=2, replicas=2, faults=plane2
            ),
        )
        host, port = thread.start()
        try:
            assert "shard_unavailable" in RETRY_CODES
            policy = RetryPolicy(attempts=4)
            with RiskRouteClient(host, port, retry=policy) as client:
                expected = pair_to_dict(_session().pair(WEST, EAST))
                assert client.pair(WEST, EAST) == expected  # hit 1: clean
                # Hit 2 on both sites: primary dies, failover dies,
                # shard_unavailable goes out — and the policy retries
                # against the respawned pool without surfacing it.
                assert client.pair(WEST, EAST) == expected
            assert plane2.fires["shard_exit"] == 1
            assert plane2.fires["replica_crash"] == 1
        finally:
            thread.stop()

    def test_write_ops_keep_fail_fast_semantics(self):
        # Failover is a read-only privilege: update_forecast is applied
        # by the parent and barriered; a shard lost during the barrier
        # is respawned warm, and the swap still lands everywhere.
        plane = FaultPlane([FaultRule("shard_exit", hits=(1,))])
        thread = ServerThread(
            _session(),
            ServerConfig(
                batch_linger=0.002, shards=2, replicas=2, faults=plane
            ),
        )
        host, port = thread.start()
        forecast = {WEST: 0.4}
        try:
            with RiskRouteClient(host, port) as client:
                # The first read batch loses a shard -> failover, ok.
                client.pair(WEST, EAST)
                swap = client.update_forecast(forecast)
                assert swap["changed"] is True
                post = client.pair(WEST, EAST)
                post_fp = client.last_fingerprint
                stats = client.stats()
        finally:
            thread.stop()
        assert stats["shards"]["fingerprint"] == post_fp
        reference = _session()
        full = {pop: 0.0 for pop in POPS}
        full.update(forecast)
        reference.update_forecast(full)
        assert post == pair_to_dict(reference.pair(WEST, EAST))
        assert reference.engine.risk_fingerprint == post_fp


#: Every ordered diamond pair, by request id.
ALL_PAIRS = dict(enumerate(permutations(POPS, 2)))


def _stop_shard_0_and_burst(host: str, port: int) -> list:
    """Warm up, SIGSTOP shard 0, then pipeline every ordered pair in
    one flush (so they form one batch spanning both shards) and read
    one reply per request."""
    with RiskRouteClient(host, port) as client:
        client.pair(WEST, EAST)
        pid = client.stats()["shards"]["per_shard"][0]["pid"]
    os.kill(pid, signal.SIGSTOP)
    sock = socket.create_connection((host, port), timeout=60)
    stream = sock.makefile("rwb")
    for i, (s, t) in ALL_PAIRS.items():
        stream.write(json.dumps({
            "id": i, "op": "pair", "v": 2, "source": s, "target": t,
        }).encode() + b"\n")
    stream.flush()
    replies = [json.loads(stream.readline()) for _ in ALL_PAIRS]
    sock.close()
    assert sorted(r["id"] for r in replies) == sorted(ALL_PAIRS)
    return replies


@pytest.mark.timeout(180)
class TestHungShard:
    """A shard that stops answering without dying: the batch watchdog
    (``SHARD_TIMEOUT``, shortened here: the pool runs in the test
    process) declares it lost, and the pool kills and respawns it
    exactly as it does a crashed one."""

    @pytest.fixture(autouse=True)
    def short_watchdog(self, monkeypatch):
        monkeypatch.setattr("repro.server.shards.SHARD_TIMEOUT", 2.0)

    def test_hung_shard_is_invisible_to_read_clients(self):
        thread = ServerThread(
            _session(),
            ServerConfig(batch_linger=0.05, shards=2, replicas=2),
        )
        host, port = thread.start()
        try:
            replies = _stop_shard_0_and_burst(host, port)
            assert [r for r in replies if not r["ok"]] == []
            reference = _session()
            for reply in replies:
                s, t = ALL_PAIRS[reply["id"]]
                assert reply["result"] == pair_to_dict(reference.pair(s, t))
            with RiskRouteClient(host, port) as client:
                health = client.health()
                assert health["status"] == "degraded"
                assert "shard 0" in health["degraded_reason"]
                client.pair(WEST, EAST)
                health = client.health()
                assert health["status"] == "ok"
                assert health["shards"]["alive"] == 2
                stats = client.stats()
        finally:
            thread.stop()
        assert stats["shards"]["crashes"] == 1
        assert stats["shards"]["restarts"] == 1
        assert stats["shards"]["failovers"] >= 1
        assert stats["shards"]["unavailable"] == 0

    def test_hung_shard_fails_only_its_keys_at_one_replica(self):
        thread = ServerThread(
            _session(),
            ServerConfig(batch_linger=0.05, shards=2, replicas=1),
        )
        host, port = thread.start()
        try:
            replies = _stop_shard_0_and_burst(host, port)
        finally:
            thread.stop()
        stopped = {
            i for i, (s, t) in ALL_PAIRS.items()
            if replicas_of(_pair_request(s, t), 2, 1)[0] == 0
        }
        assert 0 < len(stopped) < len(ALL_PAIRS)
        reference = _session()
        for reply in replies:
            if reply["id"] in stopped:
                assert not reply["ok"]
                assert reply["error"]["code"] == "internal"
                assert "shard 0" in reply["error"]["message"]
            else:
                s, t = ALL_PAIRS[reply["id"]]
                assert reply["ok"]
                assert reply["result"] == pair_to_dict(reference.pair(s, t))


@pytest.mark.timeout(180)
class TestSwapBarrierUnderReplication:
    def test_swap_lands_on_every_replica(self):
        thread = ServerThread(
            _session(),
            ServerConfig(batch_linger=0.002, shards=3, replicas=2),
        )
        host, port = thread.start()
        forecast = {WEST: 0.7, "diamond:south": 0.2}
        try:
            with RiskRouteClient(host, port) as client:
                pre = client.pair(WEST, EAST)
                pre_fp = client.last_fingerprint
                swap = client.update_forecast(forecast)
                assert swap["changed"] is True
                # Hammer every pair after the barrier: whichever
                # replica answers must be on the new field.
                posts = {
                    (s, t): client.pair(s, t)
                    for s, t in permutations(POPS, 2)
                }
                post_fp = client.last_fingerprint
                stats = client.stats()
        finally:
            thread.stop()
        assert post_fp != pre_fp
        assert stats["shards"]["fingerprint"] == post_fp
        reference = _session()
        assert pre == pair_to_dict(reference.pair(WEST, EAST))
        full = {pop: 0.0 for pop in POPS}
        full.update(forecast)
        reference.update_forecast(full)
        for (s, t), payload in posts.items():
            assert payload == pair_to_dict(reference.pair(s, t))
        # Every live shard acked the barrier (swaps counted per shard).
        for entry in stats["shards"]["per_shard"]:
            assert entry is not None and entry["swaps"] == 1

    def test_placement_is_replica_wide(self):
        # The wire-level guarantee the parity tests rest on: every
        # request's replica set under the served shard count is the
        # placement the pool actually used (sanity-pin the helper
        # against a live config).
        request = _pair_request(WEST, EAST)
        assert len(set(replicas_of(request, 3, 2))) == 2
