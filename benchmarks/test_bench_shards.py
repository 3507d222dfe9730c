"""Benchmark: sharded multi-process serving vs a single process.

The sharded tier fans query batches across N worker processes, each
holding the engine's CSR arrays through shared memory and computing
sweeps independently — so on a machine with >= N cores, cold pair
throughput should scale near-linearly from 1 shard to N.

This file pins that on Level3 (233 PoPs, the largest corpus network):

* **Parity (always asserted)**: the sharded server's replies — payload
  *and* risk fingerprint — are identical to the single-process
  server's for the same query set.
* **Scaling (asserted when the host has >= 4 cores)**: 4-shard pair
  throughput >= 2.5x 1-shard throughput, and no worse than half the
  ratio recorded in ``shards_baseline.json``.  Cold caches: sweep
  compute is the work being parallelised.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from repro.risk.model import RiskModel
from repro.server import RiskRouteClient, ServerConfig, ServerThread
from repro.session import RoutingSession
from repro.topology.zoo import network_by_name

from .conftest import run_once

BASELINE_PATH = Path(__file__).with_name("shards_baseline.json")

N_CLIENTS = 8
N_SOURCES = 24
N_TARGETS = 4
MIN_CORES_FOR_SCALING = 4
TARGET_RATIO = 2.5


def _queries(network):
    """Distinct-source pair queries: per-pair work that shards split."""
    pops = network.pop_ids()
    sources = pops[:N_SOURCES]
    targets = pops[N_SOURCES:N_SOURCES + N_TARGETS]
    return [(s, t) for s in sources for t in targets]


def _measure(network, model, shards, queries):
    """Cold-cache threaded throughput against one server mode.

    Returns ``(seconds, replies)`` where ``replies`` maps each query
    to its full reply payload plus the fingerprint it was tagged with.
    """
    thread = ServerThread(
        RoutingSession(network, model),
        ServerConfig(batch_linger=0.002, request_timeout=600.0,
                     max_pending=1024, shards=shards),
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
                for source, target in plan:
                    payload = client.pair(source, target)
                    with lock:
                        replies[(source, target)] = (
                            payload, client.last_fingerprint
                        )
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(repr(exc))

    workers = [
        threading.Thread(target=worker, args=(queries[i::N_CLIENTS],))
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
    finally:
        thread.stop()
    assert not errors, errors[:3]
    assert len(replies) == len(queries)
    return elapsed, replies


def test_shard_scaling_and_parity_level3(benchmark):
    network = network_by_name("Level3")
    model = RiskModel.for_network(network)
    queries = _queries(network)

    _, single_replies = _measure(network, model, 0, queries)
    one_seconds, one_replies = _measure(network, model, 1, queries)
    four_seconds, four_replies = run_once(
        benchmark, _measure, network, model, 4, queries
    )

    # Identical replies — same payloads, same fingerprints — across
    # single-process, 1-shard and 4-shard modes (always asserted).
    assert one_replies == single_replies
    assert four_replies == single_replies

    one_tput = len(queries) / one_seconds
    four_tput = len(queries) / four_seconds
    ratio = four_tput / one_tput

    cores = os.cpu_count() or 1
    if cores >= MIN_CORES_FOR_SCALING:
        assert ratio >= TARGET_RATIO, (
            f"4 shards moved {four_tput:.0f} pairs/s vs {one_tput:.0f} "
            f"at 1 shard ({ratio:.2f}x) on a {cores}-core host; "
            f"target {TARGET_RATIO}x"
        )
        if BASELINE_PATH.exists():
            recorded = json.loads(BASELINE_PATH.read_text())
            floor = recorded["shards4_over_shards1_min"] / 2.0
            assert ratio >= floor, (
                f"shard scaling regressed to {ratio:.2f}x; baseline "
                f"floor {floor:.2f}x"
            )
