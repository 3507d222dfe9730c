"""Server-plane streaming ingest: ops, delta invalidation, shards.

The issue's end-to-end acceptance surface:

* ``ingest`` is an idempotency-tokened write barrier — applied once,
  replayed as ``duplicate: True`` on token redelivery, rejected with
  ``bad_request`` before any mutation on malformed records;
* applied changes feed the bounded changelog behind the ``subscribe``
  poll op, versioned and fingerprint-tagged;
* an ingest that changes ``o_h`` follows the engine's one swap rule,
  observed through ``stats()["engine"]``: the geographic sweeps stay,
  every risk-weighted sweep and result goes, even for an island the
  new events never reach, and post-ingest answers equal a cold
  server's;
* under sharding the ingest barrier rebinds every shard's ``o_h``
  before the reply: all subsequent replies carry the post-ingest
  fingerprint and the pool agrees with the parent, and a shard
  respawned after the writes comes back on both current fields.
"""

from __future__ import annotations

import pytest

from repro import RoutingSession
from repro.geo.coords import GeoPoint
from repro.risk.model import RiskModel
from repro.server import (
    FaultPlane,
    FaultRule,
    RiskRouteClient,
    ServerConfig,
    ServerError,
    ServerThread,
)
from repro.server.protocol import pair_to_dict
from repro.topology.network import Network, NetworkTier, PoP
from tests.conftest import build_diamond_model, build_diamond_network

TORNADO = "fema-tornado"

# Island A: northern Maine — the one corpus spot where the tornado
# class density is exactly 0.0 (probed), so a tornado ingest elsewhere
# leaves these PoPs' o_h bitwise unchanged.  Island B: Kansas.
MAINE = ("isles:caribou", "isles:houlton")
KANSAS = ("isles:wichita", "isles:topeka")


@pytest.fixture
def diamond_server():
    thread = ServerThread(
        RoutingSession(build_diamond_network(), build_diamond_model()),
        ServerConfig(batch_linger=0.002),
    )
    host, port = thread.start()
    yield host, port
    thread.stop()


def _tornado(lat: float, lon: float, year: int) -> dict:
    return {"event_type": TORNADO, "lat": lat, "lon": lon, "year": year}


def build_two_island_network() -> Network:
    network = Network("isles", tier=NetworkTier.TIER1)
    network.add_pop(PoP("isles:caribou", "Caribou", GeoPoint(46.9, -68.0)))
    network.add_pop(PoP("isles:houlton", "Houlton", GeoPoint(46.1, -67.8)))
    network.add_pop(PoP("isles:wichita", "Wichita", GeoPoint(37.69, -97.34)))
    network.add_pop(PoP("isles:topeka", "Topeka", GeoPoint(39.05, -95.68)))
    network.add_link("isles:caribou", "isles:houlton")
    network.add_link("isles:wichita", "isles:topeka")
    return network


def build_two_island_model() -> RiskModel:
    pops = MAINE + KANSAS
    shares = {pop_id: 1.0 / len(pops) for pop_id in pops}
    oh = {pop_id: 1e-3 for pop_id in pops}
    of = {pop_id: 0.0 for pop_id in pops}
    return RiskModel(shares, oh, of, gamma_h=1e5, gamma_f=1e3)


@pytest.mark.timeout(180)
class TestIngestOp:
    def test_ingest_subscribe_round_trip(self, diamond_server):
        host, port = diamond_server
        with RiskRouteClient(host, port) as client:
            baseline = client.subscribe(since=0)
            assert baseline["version"] == 0
            assert baseline["changes"] == []
            assert baseline["truncated"] is False

            reply = client.ingest(
                [
                    _tornado(37.5, -97.5, 2005),
                    _tornado(38.5, -96.5, 2006),
                ],
                token="rt-1",
            )
            assert reply["appended"] == 2
            assert reply["changed"] is True
            assert reply["duplicate"] is False
            fingerprint = client.last_fingerprint

            feed = client.subscribe(since=0)
            assert feed["version"] == 1
            assert len(feed["changes"]) == 1
            entry = feed["changes"][0]
            assert entry["op"] == "ingest"
            assert entry["fingerprint"] == fingerprint
            assert feed["fingerprint"] == fingerprint
            assert feed["truncated"] is False
            # A caught-up subscriber sees nothing new.
            assert client.subscribe(since=1)["changes"] == []

            assert client.stats()["ingests"] == 1

    def test_reply_keys_and_no_now_year(self, diamond_server):
        """Ingest is append plus dedup: the reply has no window
        counters, and ``now_year`` is not a parameter."""
        host, port = diamond_server
        with RiskRouteClient(host, port) as client:
            reply = client.ingest([_tornado(37.5, -97.5, 2005)])
            assert set(reply) == {
                "appended", "duplicates", "touched_types", "changed",
                "duplicate",
            }
            with pytest.raises(ServerError) as excinfo:
                client.call(
                    "ingest", events=[_tornado(38.5, -96.5, 2006)],
                    now_year=2010,
                )
            assert excinfo.value.code == "bad_request"
            assert "now_year" in excinfo.value.message

    def test_duplicate_token_replays_without_reapplying(self, diamond_server):
        host, port = diamond_server
        events = [_tornado(37.5, -97.5, 2005)]
        with RiskRouteClient(host, port) as client:
            first = client.ingest(events, token="dup-1")
            assert first["duplicate"] is False
            fingerprint = client.last_fingerprint

            replay = client.ingest(events, token="dup-1")
            assert replay == {"changed": first["changed"], "duplicate": True}
            assert client.last_fingerprint == fingerprint
            # The replay neither re-applies nor feeds the changelog.
            assert client.stats()["ingests"] == 1
            assert client.subscribe(since=0)["version"] == 1

    def test_bad_record_rejected_before_mutation(self, diamond_server):
        host, port = diamond_server
        with RiskRouteClient(host, port) as client:
            fingerprint = client.subscribe(since=0)["fingerprint"]
            with pytest.raises(ServerError) as excinfo:
                client.ingest(
                    [_tornado(37.5, -97.5, 2005),
                     {"event_type": "volcano", "lat": 1.0, "lon": 1.0,
                      "year": 2005}],
                    token="bad-1",
                )
            assert excinfo.value.code == "bad_request"
            feed = client.subscribe(since=0)
            assert feed["fingerprint"] == fingerprint
            assert feed["version"] == 0
            assert client.stats()["ingests"] == 0

    def test_ingest_requires_events(self, diamond_server):
        host, port = diamond_server
        with RiskRouteClient(host, port) as client:
            with pytest.raises(ServerError) as excinfo:
                client.call("ingest", events=[], token="empty-1")
            assert excinfo.value.code == "bad_request"


@pytest.mark.timeout(300)
class TestDeltaInvalidationAcrossIngest:
    def test_ingest_keeps_only_geographic_sweeps(self):
        """Over the wire, a localized ingest drops every memoized
        risk-weighted answer, the untouched island's too, and keeps the
        geographic sweeps."""
        thread = ServerThread(
            RoutingSession(
                build_two_island_network(), build_two_island_model()
            ),
            ServerConfig(batch_linger=0.002),
        )
        host, port = thread.start()
        try:
            with RiskRouteClient(host, port) as client:
                # First ingest swaps o_h wholesale onto the corpus
                # streaming model's field — only the *second* one
                # exercises the delta path.
                client.ingest([_tornado(37.5, -97.5, 2005)], token="seed")
                client.pair(*MAINE)
                client.pair(*KANSAS)
                # Each pair cached its source's geographic sweep and
                # memoized its answer; no risk-weighted sweep is cached.
                before = client.stats()["engine"]
                assert before["cached_sweeps"] == 2
                assert before["cached_routes"] == 2

                reply = client.ingest(
                    [_tornado(38.5, -96.5, 2006)], token="second"
                )
                assert reply["changed"] is True
                fingerprint = client.last_fingerprint

                # The swap kept the two geographic sweeps and dropped
                # both memoized pairs.
                swapped_stats = client.stats()
                swapped = swapped_stats["engine"]
                assert swapped["cached_sweeps"] == 2
                assert swapped["cached_routes"] == 0
                assert swapped["cached_results"] == 0

                # Maine's tornado density is exactly 0.0 before and
                # after (the new event is far out of kernel reach), yet
                # its pair is recomputed too, off the surviving
                # geographic sweep.
                client.pair(*MAINE)
                # Every post-ingest query reply carries the new
                # fingerprint (stats replies are untagged).
                assert client.last_fingerprint == fingerprint
                mid_stats = client.stats()
                mid = mid_stats["engine"]
                assert (
                    mid_stats["sweeps_computed"]
                    == swapped_stats["sweeps_computed"]
                )
                assert mid["cached_sweeps"] == 2
                assert mid["cached_routes"] == 1
                assert mid["routes"]["misses"] == (
                    swapped["routes"]["misses"] + 1
                )
                assert mid["targeted"]["queries"] == (
                    swapped["targeted"]["queries"] + 1
                )
        finally:
            thread.stop()

    def test_post_ingest_answers_match_cold_session(self):
        """Answers after an ingest swap on a warm server equal a cold
        server's on the equivalent state (no stale replies)."""
        def collect(warm_between):
            thread = ServerThread(
                RoutingSession(
                    build_two_island_network(), build_two_island_model()
                ),
                ServerConfig(batch_linger=0.002),
            )
            host, port = thread.start()
            try:
                with RiskRouteClient(host, port) as client:
                    client.ingest([_tornado(37.5, -97.5, 2005)], token="b1")
                    if warm_between:
                        # Warm both islands before the second ingest
                        # swaps the field under them.
                        client.pair(*MAINE)
                        client.pair(*KANSAS)
                    client.ingest([_tornado(38.5, -96.5, 2006)], token="b2")
                    replies = (client.pair(*MAINE), client.pair(*KANSAS))
                    fingerprint = client.last_fingerprint
            finally:
                thread.stop()
            return replies, fingerprint

        warm, warm_fp = collect(warm_between=True)
        cold, cold_fp = collect(warm_between=False)
        assert warm == cold
        assert warm_fp == cold_fp


@pytest.mark.timeout(300)
class TestShardedIngest:
    def test_two_shard_barrier_and_fingerprint_consistency(self):
        thread = ServerThread(
            RoutingSession(build_diamond_network(), build_diamond_model()),
            ServerConfig(batch_linger=0.002, shards=2),
        )
        host, port = thread.start()
        pops = ("diamond:west", "diamond:east", "diamond:north",
                "diamond:south")
        try:
            with RiskRouteClient(host, port) as client:
                client.pair(pops[0], pops[1])
                reply = client.ingest(
                    [_tornado(37.5, -97.5, 2005)], token="shard-1"
                )
                assert reply["changed"] is True
                fingerprint = client.last_fingerprint

                # The barrier held: the pool agrees with the parent,
                # and every shard-served reply carries the post-ingest
                # fingerprint regardless of which shard answers.
                stats = client.stats()
                assert stats["shards"]["alive"] == 2
                assert stats["shards"]["fingerprint"] == fingerprint
                for source in pops:
                    for target in pops:
                        if source == target:
                            continue
                        client.pair(source, target)
                        assert client.last_fingerprint == fingerprint

                feed = client.subscribe(since=0)
                assert feed["version"] == 1
                assert feed["fingerprint"] == fingerprint
                assert feed["changes"][0]["op"] == "ingest"
        finally:
            thread.stop()

    def test_respawned_shard_comes_back_on_both_fields(self):
        """A shard killed after an ingest and a forecast swap respawns
        on both current fields: it passes the warm-up fingerprint
        barrier and its replies match a direct session."""
        from repro.disasters.events import DisasterEvent
        from repro.risk.streaming import default_streaming_model

        pops = ("diamond:west", "diamond:east", "diamond:north",
                "diamond:south")
        pairs = [(s, t) for s in pops for t in pops if s != t]
        forecast = {"diamond:west": 0.4}
        # Writes never visit shard_exit: the first read batch after
        # them is the one that loses a shard.
        plane = FaultPlane([FaultRule("shard_exit", hits=(1,))])
        thread = ServerThread(
            RoutingSession(build_diamond_network(), build_diamond_model()),
            ServerConfig(
                batch_linger=0.002, shards=2, replicas=2, faults=plane
            ),
        )
        host, port = thread.start()
        try:
            with RiskRouteClient(host, port) as client:
                client.ingest([_tornado(37.5, -97.5, 2005)], token="r-1")
                client.update_forecast(forecast, token="r-2")
                pids = [
                    entry["pid"]
                    for entry in client.stats()["shards"]["per_shard"]
                ]
                replies = {}
                for source, target in pairs:
                    replies[(source, target)] = client.pair(source, target)
                    fingerprint = client.last_fingerprint
                stats = client.stats()
                health = client.health()
        finally:
            thread.stop()
        shards = stats["shards"]
        assert plane.fires["shard_exit"] == 1
        assert shards["crashes"] == 1
        # The replacement passed the warm-up fingerprint barrier (a
        # stale field would have failed it and left the slot down).
        assert shards["restarts"] == 1
        assert shards["alive"] == 2 and health["status"] == "ok"
        assert shards["fingerprint"] == fingerprint
        replaced = [
            entry for entry, pid in zip(shards["per_shard"], pids)
            if entry["pid"] != pid
        ]
        assert len(replaced) == 1 and replaced[0]["batches"] > 0

        network = build_diamond_network()
        reference = RoutingSession(network, build_diamond_model())
        streaming = default_streaming_model()
        streaming.ingest([
            DisasterEvent(
                event_type=TORNADO, location=GeoPoint(37.5, -97.5),
                year=2005,
            )
        ])
        reference.update_historical(streaming.pop_risks(network))
        full = {pop: 0.0 for pop in pops}
        full.update(forecast)
        reference.update_forecast(full)
        assert reference.engine.risk_fingerprint == fingerprint
        for (source, target), payload in replies.items():
            assert payload == pair_to_dict(reference.pair(source, target))
