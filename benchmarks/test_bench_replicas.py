"""Benchmark: replicated read shards vs single-owner affinity.

Per-pair affinity (PR 6) keeps sweep caches hot, but it pins every
query for a pair to exactly one process — a skewed workload where one
"celebrity" pair dominates serializes on that shard's core while the
rest of the pool idles.  Replication (``replicas=R``) spreads the hot
key over R shards with power-of-two-choices balancing.

This file pins that on Level3 (233 PoPs) with a Zipf-flavoured
workload (~60% of queries hit one celebrity pair, the tail spreads
over distinct sources), served with single-entry engine caches so the
hot pair is genuinely compute-bound rather than memoized:

* **Parity (always asserted)**: replicated replies — payload *and*
  fingerprint — are identical to the single-process server's.
* **Spread (always asserted)**: under ``replicas=4`` every shard
  serves batches; under ``replicas=1`` the celebrity's owner does.
* **Scaling (asserted when the host has >= 4 cores)**: 4-replica
  throughput >= 1.8x single-replica affinity on the skewed workload,
  and no worse than half the ratio recorded in
  ``replica_baseline.json``.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from pathlib import Path

from repro.engine import EngineConfig
from repro.risk.model import RiskModel
from repro.server import RiskRouteClient, ServerConfig, ServerThread
from repro.session import RoutingSession
from repro.topology.zoo import network_by_name

from .conftest import run_once

BASELINE_PATH = Path(__file__).with_name("replica_baseline.json")

N_CLIENTS = 8
N_QUERIES = 96
CELEBRITY_WEIGHT = 0.6
N_TAIL_SOURCES = 16
MIN_CORES_FOR_SCALING = 4
TARGET_RATIO = 1.8

#: Single-entry caches: consecutive distinct queries on a shard evict
#: each other, so the celebrity pair costs a real sweep essentially
#: every time it is interleaved with tail traffic — the serialized
#: work the replicas are supposed to spread.
BENCH_ENGINE = EngineConfig(sweep_cache_size=1, result_cache_size=1)


def _zipf_queries(network):
    """~60% celebrity pair, tail uniform over distinct sources."""
    pops = network.pop_ids()
    celebrity = (pops[0], pops[-1])
    tail = [(pops[1 + i], pops[-2]) for i in range(N_TAIL_SOURCES)]
    rng = random.Random(7)
    queries = [
        celebrity if rng.random() < CELEBRITY_WEIGHT
        else tail[rng.randrange(len(tail))]
        for _ in range(N_QUERIES)
    ]
    assert sum(q == celebrity for q in queries) > N_QUERIES // 2
    return queries


def _measure(network, model, shards, replicas, queries):
    """Cold-cache threaded throughput against one server mode.

    Returns ``(seconds, replies, stats)``; ``replies`` maps each query
    slot (index, pair) to its payload and tagged fingerprint, so parity
    is asserted per reply even when a pair repeats.
    """
    thread = ServerThread(
        RoutingSession(network, model, config=BENCH_ENGINE),
        ServerConfig(batch_linger=0.002, request_timeout=600.0,
                     max_pending=1024, shards=shards, replicas=replicas),
    )
    host, port = thread.start()
    replies = {}
    lock = threading.Lock()
    errors = []
    barrier = threading.Barrier(N_CLIENTS + 1)

    def worker(plan):
        try:
            with RiskRouteClient(host, port, timeout=600) as client:
                barrier.wait(timeout=120)
                for slot, (source, target) in plan:
                    payload = client.pair(source, target)
                    with lock:
                        replies[slot] = (
                            (source, target), payload,
                            client.last_fingerprint,
                        )
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(repr(exc))

    plans = list(enumerate(queries))
    workers = [
        threading.Thread(target=worker, args=(plans[i::N_CLIENTS],))
        for i in range(N_CLIENTS)
    ]
    try:
        for w in workers:
            w.start()
        barrier.wait(timeout=120)
        t0 = time.perf_counter()
        for w in workers:
            w.join(timeout=600)
        elapsed = time.perf_counter() - t0
        with RiskRouteClient(host, port, timeout=600) as client:
            stats = client.stats()
    finally:
        thread.stop()
    assert not errors, errors[:3]
    assert len(replies) == len(queries)
    return elapsed, replies, stats


def test_replica_scaling_and_parity_level3(benchmark):
    network = network_by_name("Level3")
    model = RiskModel.for_network(network)
    queries = _zipf_queries(network)

    _, single_replies, _ = _measure(network, model, 0, 1, queries)
    one_seconds, one_replies, one_stats = _measure(
        network, model, 4, 1, queries
    )
    four_seconds, four_replies, four_stats = run_once(
        benchmark, _measure, network, model, 4, 4, queries
    )

    # Identical replies — same payloads, same fingerprints — whether a
    # query was served by the single process, the affinity owner, or
    # any replica (always asserted).
    assert one_replies == single_replies
    assert four_replies == single_replies
    assert four_stats["errors"] == 0
    assert four_stats["shards"]["crashes"] == 0

    # The celebrity no longer bottlenecks one process: every replica
    # served batches, where affinity kept its owner alone on the hot
    # pair's traffic.
    four_batches = [
        entry["batches"] for entry in four_stats["shards"]["per_shard"]
    ]
    assert all(served > 0 for served in four_batches), four_batches
    assert one_stats["shards"]["replicas"] == 1
    assert four_stats["shards"]["replicas"] == 4

    one_tput = len(queries) / one_seconds
    four_tput = len(queries) / four_seconds
    ratio = four_tput / one_tput

    cores = os.cpu_count() or 1
    if cores >= MIN_CORES_FOR_SCALING:
        assert ratio >= TARGET_RATIO, (
            f"4 replicas moved {four_tput:.0f} pairs/s vs {one_tput:.0f} "
            f"under single-owner affinity ({ratio:.2f}x) on a "
            f"{cores}-core host; target {TARGET_RATIO}x"
        )
        if BASELINE_PATH.exists():
            recorded = json.loads(BASELINE_PATH.read_text())
            floor = recorded["replicated4_over_affinity_min"] / 2.0
            assert ratio >= floor, (
                f"replica scaling regressed to {ratio:.2f}x; baseline "
                f"floor {floor:.2f}x"
            )
