"""The sharded serving tier: affinity, parity, barriers, chaos.

Covers the sharded-serving issue's acceptance tests:

* the primary owner, ``replicas_of(request, n, 1)[0]``
  (:func:`~repro.server.shards.replicas_of`), is deterministic with
  per-network, per-pair affinity — the same pair always lands on the
  same shard, so its sweep caches stay hot;
* a sharded server's replies are *identical* (payload and fingerprint)
  to the single-process server and to a direct
  :class:`~repro.RoutingSession`;
* forecast swaps broadcast behind a fingerprint barrier: no reply ever
  mixes pre- and post-swap state, under concurrent load;
* a shard killed mid-batch (injected ``shard_exit``) yields exactly
  one reply per request — typed ``internal`` errors for the doomed
  batch — with ``degraded`` health that heals on the next clean batch.

Shard workers are real spawned processes; every server test here runs
under a pytest-timeout so a wedged pipe fails fast instead of hanging
the suite.
"""

from __future__ import annotations

import json
import multiprocessing
import socket
import threading
import time
from itertools import permutations

import pytest

from repro import RoutingSession
from repro.server import (
    FaultPlane,
    FaultRule,
    RiskRouteClient,
    ServerConfig,
    ServerError,
    ServerThread,
)
from repro.server.protocol import PROTOCOL_VERSION, Request, pair_to_dict
from repro.server.shards import ShardPool, replicas_of
from tests.conftest import build_diamond_model, build_diamond_network

WEST, EAST = "diamond:west", "diamond:east"
POPS = ("diamond:west", "diamond:east", "diamond:north", "diamond:south")


def _pair_request(source: str, target: str, op: str = "pair") -> Request:
    return Request(
        op=op, id=1, params={"source": source, "target": target},
        v=PROTOCOL_VERSION,
    )


def _owner(request: Request, nshards: int) -> int:
    """The shard a single-replica pool routes ``request`` to."""
    return replicas_of(request, nshards, 1)[0]


def _shard_processes(other=frozenset()) -> set:
    """This process's live shard children, less ``other``."""
    return {
        child
        for child in multiprocessing.active_children()
        if child.name.startswith("riskroute-shard-")
    } - other


def _diamond_pool() -> ShardPool:
    session = RoutingSession(build_diamond_network(), build_diamond_model())
    return ShardPool(session, 2, replicas=1)


class TestShardOf:
    def test_same_pair_always_same_shard(self):
        for nshards in (2, 3, 8):
            for source, target in permutations(POPS, 2):
                first = _owner(_pair_request(source, target), nshards)
                assert 0 <= first < nshards
                for _ in range(5):
                    assert _owner(
                        _pair_request(source, target), nshards
                    ) == first

    def test_route_and_pair_colocate(self):
        # Affinity is per endpoint pair, not per op: a route and a pair
        # for the same endpoints share sweep caches on one shard.
        for source, target in permutations(POPS, 2):
            assert _owner(_pair_request(source, target, "route"), 4) == \
                _owner(_pair_request(source, target, "pair"), 4)

    def test_strategy_param_does_not_move_the_pair(self):
        base = Request(
            op="route", id=1,
            params={"source": WEST, "target": EAST}, v=2,
        )
        tuned = Request(
            op="route", id=2,
            params={"source": WEST, "target": EAST, "strategy": "exact"},
            v=2,
        )
        assert _owner(base, 8) == _owner(tuned, 8)

    def test_network_prefix_keys_the_hash(self):
        # Same city suffix under different network prefixes must be
        # free to land on different shards (per-network affinity).
        spread = {
            _owner(_pair_request(f"net{i}:a", f"net{i}:b"), 8)
            for i in range(32)
        }
        assert len(spread) > 1

    def test_pairs_spread_across_shards(self):
        pops = [f"zoo:pop{i}" for i in range(16)]
        hits = {
            _owner(_pair_request(s, t), 2)
            for s, t in permutations(pops, 2)
        }
        assert hits == {0, 1}

    def test_params_routing_is_key_order_independent(self):
        a = Request(op="ratios", id=1,
                    params={"sources": [WEST], "targets": [EAST]}, v=2)
        b = Request(op="ratios", id=2,
                    params={"targets": [EAST], "sources": [WEST]}, v=2)
        assert _owner(a, 8) == _owner(b, 8)

    def test_single_shard_and_malformed_requests_pin_to_zero(self):
        assert _owner(_pair_request(WEST, EAST), 1) == 0
        assert _owner(_pair_request(WEST, EAST), 0) == 0
        broken = Request(op="pair", id=1,
                         params={"source": 7, "target": None}, v=2)
        assert _owner(broken, 4) == 0


@pytest.mark.timeout(180)
class TestPoolStart:
    def test_every_shard_starts_before_the_first_ping(self, monkeypatch):
        at_first_ping = []
        recv = ShardPool._recv
        before = _shard_processes()

        def watched(pool, shard, kind, seq):
            if kind == "pong" and not at_first_ping:
                at_first_ping.append(
                    {p.pid for p in _shard_processes(before)}
                )
            return recv(pool, shard, kind, seq)

        monkeypatch.setattr(ShardPool, "_recv", watched)
        pool = _diamond_pool()
        try:
            pool.start()
            assert pool.alive() == 2
            pids = {shard["pid"] for shard in pool.snapshot()["per_shard"]}
        finally:
            pool.stop()
        assert pids <= at_first_ping[0]

    def test_fingerprint_mismatch_on_shard_1_leaves_no_shard(
        self, monkeypatch
    ):
        started = set()
        recv = ShardPool._recv
        pongs = []
        before = _shard_processes()

        def forged(pool, shard, kind, seq):
            started.update(_shard_processes(before))
            message = recv(pool, shard, kind, seq)
            if kind == "pong":
                pongs.append(shard.pid)
                if len(pongs) == 2 and message is not None:
                    message = message[:2] + ("stale",) + message[3:]
            return message

        monkeypatch.setattr(ShardPool, "_recv", forged)
        pool = _diamond_pool()
        with pytest.raises(
            RuntimeError, match="shard 1 warmed up on fingerprint 'stale'"
        ):
            pool.start()
        assert len(started) == 2
        for process in started:
            process.join(timeout=10)
            assert not process.is_alive()
        assert pool.alive() == 0
        assert pool.snapshot()["per_shard"] == [None, None]


@pytest.mark.timeout(180)
class TestShardedParity:
    def test_replies_identical_to_single_process_and_direct(self):
        network, model = build_diamond_network(), build_diamond_model()
        session = RoutingSession(network, model)
        direct = {
            (s, t): pair_to_dict(session.pair(s, t))
            for s, t in permutations(POPS, 2)
        }
        direct_fp = session.engine.risk_fingerprint

        def serve_and_collect(shards):
            thread = ServerThread(
                RoutingSession(
                    build_diamond_network(), build_diamond_model()
                ),
                ServerConfig(batch_linger=0.002, shards=shards),
            )
            host, port = thread.start()
            try:
                with RiskRouteClient(host, port) as client:
                    replies = {
                        key: client.pair(*key) for key in direct
                    }
                    ratios = client.ratios()
                    provision = client.provision(top=2)
                    fingerprint = client.last_fingerprint
            finally:
                thread.stop()
            return replies, ratios, provision, fingerprint

        single = serve_and_collect(shards=0)
        sharded = serve_and_collect(shards=2)
        assert sharded == single
        assert sharded[0] == direct
        assert sharded[3] == direct_fp

    def test_stats_and_health_expose_shards(self):
        thread = ServerThread(
            RoutingSession(build_diamond_network(), build_diamond_model()),
            ServerConfig(batch_linger=0.002, shards=2),
        )
        host, port = thread.start()
        try:
            with RiskRouteClient(host, port) as client:
                for _ in range(5):
                    client.pair(WEST, EAST)
                stats = client.stats()
                health = client.health()
        finally:
            thread.stop()
        shards = stats["shards"]
        assert shards["count"] == 2
        assert shards["alive"] == 2
        assert shards["crashes"] == 0
        assert shards["replicas"] == 1
        assert shards["failovers"] == 0
        # Per-pair affinity end to end: every batch of the repeated
        # pair landed on one shard; the other stayed cold.
        batches = sorted(
            entry["batches"] for entry in shards["per_shard"]
        )
        assert batches[0] == 0
        assert batches[-1] >= 5
        assert health["status"] == "ok"
        assert health["shards"] == {"count": 2, "alive": 2, "replicas": 1}


@pytest.mark.timeout(180)
class TestSwapBarrier:
    def test_no_reply_mixes_fingerprints_across_swap(self):
        reference = RoutingSession(
            build_diamond_network(), build_diamond_model()
        )
        forecast = {WEST: 0.7, "diamond:south": 0.2}
        # The server-side op fills absent PoPs with default=0.0; the
        # direct-session reference needs the full map spelled out.
        full_forecast = {pop: 0.0 for pop in POPS}
        full_forecast.update(forecast)
        pre_fp = reference.engine.risk_fingerprint
        expected = {pre_fp: pair_to_dict(reference.pair(WEST, EAST))}
        reference.update_forecast(full_forecast)
        post_fp = reference.engine.risk_fingerprint
        assert post_fp != pre_fp
        expected[post_fp] = pair_to_dict(reference.pair(WEST, EAST))

        thread = ServerThread(
            RoutingSession(build_diamond_network(), build_diamond_model()),
            ServerConfig(batch_linger=0.002, shards=2),
        )
        host, port = thread.start()
        observed = []
        stop = threading.Event()
        errors = []

        def hammer():
            try:
                with RiskRouteClient(host, port) as client:
                    while not stop.is_set():
                        payload = client.pair(WEST, EAST)
                        observed.append(
                            (client.last_fingerprint, payload)
                        )
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        workers = [
            threading.Thread(target=hammer, daemon=True) for _ in range(4)
        ]
        try:
            for worker in workers:
                worker.start()
            time.sleep(0.2)
            with RiskRouteClient(host, port) as client:
                swap = client.update_forecast(forecast)
            assert swap["changed"] is True
            time.sleep(0.2)
            stop.set()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            stop.set()
            thread.stop()
        assert not errors, errors
        fingerprints = {fp for fp, _ in observed}
        assert fingerprints == {pre_fp, post_fp}
        for fingerprint, payload in observed:
            # The barrier invariant: a reply tagged with a fingerprint
            # is the exact answer of that model state, never a mix.
            assert payload == expected[fingerprint]


@pytest.mark.timeout(180)
class TestShardChaos:
    def test_mid_batch_crash_yields_exactly_one_reply_each(self):
        plane = FaultPlane([FaultRule("shard_exit", hits=(1,))])
        thread = ServerThread(
            RoutingSession(build_diamond_network(), build_diamond_model()),
            ServerConfig(batch_linger=0.05, shards=2, faults=plane),
        )
        host, port = thread.start()
        try:
            # Pipeline one request per ordered pair in a single flush
            # so they coalesce into one batch spanning both shards.
            requests = {
                i: (s, t)
                for i, (s, t) in enumerate(permutations(POPS, 2))
            }
            by_shard = {0: 0, 1: 0}
            for s, t in requests.values():
                by_shard[_owner(_pair_request(s, t), 2)] += 1
            assert by_shard[0] and by_shard[1], by_shard

            sock = socket.create_connection((host, port), timeout=60)
            stream = sock.makefile("rwb")
            for i, (s, t) in requests.items():
                stream.write(json.dumps({
                    "id": i, "op": "pair", "v": 2,
                    "source": s, "target": t,
                }).encode() + b"\n")
            stream.flush()
            replies = [
                json.loads(stream.readline()) for _ in requests
            ]
            sock.close()

            # Exactly one reply per request id, no extras, no hangs.
            assert sorted(r["id"] for r in replies) == sorted(requests)
            failed = [r for r in replies if not r["ok"]]
            served = [r for r in replies if r["ok"]]
            assert failed and served
            for reply in failed:
                assert reply["error"]["code"] == "internal"
                assert "shard" in reply["error"]["message"]

            with RiskRouteClient(host, port) as client:
                health = client.health()
                assert health["status"] == "degraded"
                assert "shard" in health["degraded_reason"]

                # The dead shard's replacement answers the same pairs
                # correctly, and a clean batch heals the health state.
                session = RoutingSession(
                    build_diamond_network(), build_diamond_model()
                )
                for reply in failed:
                    s, t = requests[reply["id"]]
                    assert client.pair(s, t) == pair_to_dict(
                        session.pair(s, t)
                    )
                health = client.health()
                assert health["status"] == "ok"
                assert health["shards"]["alive"] == 2

                stats = client.stats()
                assert stats["shards"]["crashes"] == 1
                assert stats["shards"]["restarts"] == 1
                assert stats["worker_crashes"] >= 1
                assert stats["worker_restarts"] >= 1
        finally:
            thread.stop()

    def test_swap_respawns_dead_shard_warm(self):
        plane = FaultPlane([FaultRule("shard_exit", hits=(1,))])
        thread = ServerThread(
            RoutingSession(build_diamond_network(), build_diamond_model()),
            ServerConfig(batch_linger=0.002, shards=2, faults=plane),
        )
        host, port = thread.start()
        forecast = {WEST: 0.4}
        try:
            with RiskRouteClient(host, port) as client:
                with pytest.raises(ServerError) as err:
                    client.pair(WEST, EAST)
                assert err.value.code == "internal"
                swap = client.update_forecast(forecast)
                assert swap["changed"] is True
                post = client.pair(WEST, EAST)
                post_fp = client.last_fingerprint
                stats = client.stats()
        finally:
            thread.stop()
        # Every shard (including the respawned one) swapped to the new
        # field, and the served answer is the post-swap model's.
        assert stats["shards"]["fingerprint"] == post_fp
        reference = RoutingSession(
            build_diamond_network(), build_diamond_model()
        )
        full_forecast = {pop: 0.0 for pop in POPS}
        full_forecast.update(forecast)
        reference.update_forecast(full_forecast)
        assert post == pair_to_dict(reference.pair(WEST, EAST))
        assert reference.engine.risk_fingerprint == post_fp
