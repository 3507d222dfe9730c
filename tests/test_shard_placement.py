"""Placement-map properties: rendezvous hashing at every replica count.

Pure-function tests over :func:`repro.server.shards.replicas_of` — no
processes, no sockets.  The hypothesis suites pin the contracts
placement rests on: rendezvous (highest-random-weight) hashing, so
adding a shard moves only the keys the new shard wins, and growing the
replica count only appends to each key's replica set; malformed
requests pin to shard 0.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.protocol import Request
from repro.server.shards import replicas_of
from tests.conftest import examples

pytestmark = pytest.mark.timeout(60)


def _pair_request(source: str, target: str) -> Request:
    return Request(
        op="pair", id=1, params={"source": source, "target": target}, v=2
    )


def _params_request(sources) -> Request:
    return Request(op="ratios", id=1, params={"sources": sources}, v=2)


_pop_ids = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=24,
)


class TestRendezvousPlacement:
    @given(
        source=_pop_ids,
        target=_pop_ids,
        nshards=st.integers(min_value=2, max_value=12),
        replicas=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=examples(200), deadline=None)
    def test_replica_sets_are_valid(self, source, target, nshards, replicas):
        got = replicas_of(_pair_request(source, target), nshards, replicas)
        assert len(got) == min(replicas, nshards)
        assert len(set(got)) == len(got)
        assert all(0 <= sid < nshards for sid in got)
        # Deterministic: same key, same set, every call.
        assert got == replicas_of(
            _pair_request(source, target), nshards, replicas
        )

    @given(
        source=_pop_ids,
        target=_pop_ids,
        nshards=st.integers(min_value=2, max_value=12),
        replicas=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=examples(200), deadline=None)
    def test_adding_a_shard_moves_only_the_minimal_keys(
        self, source, target, nshards, replicas
    ):
        """Rendezvous stability: growing N to N+1 may only insert the
        new shard into a key's replica set (evicting the last-ranked
        member) — it can never reshuffle placement among the existing
        shards, unlike the modulo hash."""
        request = _pair_request(source, target)
        old = replicas_of(request, nshards, replicas)
        new = replicas_of(request, nshards + 1, replicas)
        if nshards in set(new):
            # The new shard won a slot: the survivors keep their
            # relative order, and at most the last-ranked old member
            # fell off.
            survivors = tuple(sid for sid in new if sid != nshards)
            assert survivors == tuple(
                sid for sid in old if sid in set(survivors)
            )
            assert set(old) - set(new) <= {old[-1]}
        else:
            # The new shard lost everywhere: nothing moves at all.
            assert new == old

    @given(
        source=_pop_ids,
        target=_pop_ids,
        nshards=st.integers(min_value=3, max_value=12),
        replicas=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=examples(200), deadline=None)
    def test_growing_replicas_only_appends(
        self, source, target, nshards, replicas
    ):
        request = _pair_request(source, target)
        smaller = replicas_of(request, nshards, replicas)
        larger = replicas_of(request, nshards, replicas + 1)
        assert larger[: len(smaller)] == smaller

    @given(
        sources=st.lists(_pop_ids, min_size=1, max_size=3),
        nshards=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=examples(100), deadline=None)
    def test_params_keys_replicate_deterministically(self, sources, nshards):
        a = replicas_of(_params_request(sources), nshards, 2)
        b = replicas_of(_params_request(list(sources)), nshards, 2)
        assert a == b

    @given(nshards=st.integers(min_value=1, max_value=16))
    @settings(max_examples=examples(32), deadline=None)
    def test_malformed_requests_pin_to_shard_zero(self, nshards):
        malformed = Request(op="pair", id=1, params={"source": 3}, v=2)
        for replicas in (1, 2, 4):
            assert replicas_of(malformed, nshards, replicas) == (0,)

    def test_route_and_pair_share_a_replica_set(self):
        # Same affinity key => same replica set: the two pair-routed
        # ops stay colocated under replication exactly as they were
        # under single-owner affinity.
        route = Request(
            op="route",
            id=1,
            params={"source": "net:a", "target": "net:b"},
            v=2,
        )
        pair = _pair_request("net:a", "net:b")
        for nshards in (2, 4, 8):
            for replicas in (1, 2, 3):
                assert replicas_of(route, nshards, replicas) == replicas_of(
                    pair, nshards, replicas
                )

    def test_replicas_spread_across_keys(self):
        # Sanity: over many keys, every shard serves some replica slot
        # (rendezvous is balanced in expectation).
        nshards, replicas = 4, 2
        seen = set()
        for i in range(64):
            request = _pair_request(f"net:{i}", f"net:peer{i}")
            seen.update(replicas_of(request, nshards, replicas))
        assert seen == set(range(nshards))
