"""Benchmark: batched concurrent serving vs serial per-request.

The daemon's queue batches concurrent requests into one executor hop,
so N clients in flight should move at least as many requests per
second as one client issuing the same requests strictly serially
(where every request pays its own round trip and executor dispatch).

This file pins that property on Level3 (233 PoPs, the largest corpus
network): coalesced throughput must be >= serial per-request
throughput, and must not regress by more than 2x against the ratio
recorded in ``server_baseline.json``.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

from repro.risk.model import RiskModel
from repro.server import RiskRouteClient, ServerConfig, ServerThread
from repro.session import RoutingSession
from repro.topology.zoo import network_by_name

from .conftest import run_once

BASELINE_PATH = Path(__file__).with_name("server_baseline.json")

N_CLIENTS = 8
N_SOURCES = 8
N_TARGETS = 25


def _queries(network):
    pops = network.pop_ids()
    sources = pops[:N_SOURCES]
    targets = pops[N_SOURCES:N_SOURCES + N_TARGETS]
    return [(s, t) for s in sources for t in targets]


def _run_serial(host, port, queries):
    with RiskRouteClient(host, port, timeout=120) as client:
        t0 = time.perf_counter()
        for source, target in queries:
            client.pair(source, target)
        return time.perf_counter() - t0


def _run_coalesced(host, port, queries):
    barrier = threading.Barrier(N_CLIENTS + 1)
    errors = []

    def worker(plan):
        try:
            with RiskRouteClient(host, port, timeout=120) as client:
                barrier.wait(timeout=60)
                for source, target in plan:
                    client.pair(source, target)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(repr(exc))

    # Strided partition: concurrent clients work the same sources at
    # the same time.
    threads = [
        threading.Thread(target=worker, args=(queries[i::N_CLIENTS],))
        for i in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)
    t0 = time.perf_counter()
    for thread in threads:
        thread.join(timeout=300)
    elapsed = time.perf_counter() - t0
    assert not errors, errors[:3]
    return elapsed


def test_server_coalesced_throughput_level3(benchmark):
    network = network_by_name("Level3")
    session = RoutingSession(network, RiskModel.for_network(network))
    queries = _queries(network)

    thread = ServerThread(
        session,
        ServerConfig(batch_linger=0.002, request_timeout=300.0,
                     max_pending=1024),
    )
    host, port = thread.start()
    try:
        # Warm pass: both measured runs then serve from the same warm
        # sweep caches, isolating serving overhead from sweep compute.
        _run_serial(host, port, queries)

        serial_seconds = _run_serial(host, port, queries)
        with RiskRouteClient(host, port) as client:
            before = client.stats()["batches"]
        coalesced_seconds = run_once(
            benchmark, _run_coalesced, host, port, queries
        )

        with RiskRouteClient(host, port) as client:
            # The stats request itself is one more batch.
            batches = client.stats()["batches"] - before - 1
        assert batches < len(queries), (
            f"concurrent run was never batched: {batches} batches for "
            f"{len(queries)} requests"
        )

        serial_tput = len(queries) / serial_seconds
        coalesced_tput = len(queries) / coalesced_seconds
        ratio = coalesced_tput / serial_tput
        assert ratio >= 1.0, (
            f"coalesced serving ({coalesced_tput:.0f} req/s) slower than "
            f"serial per-request ({serial_tput:.0f} req/s)"
        )

        if BASELINE_PATH.exists():
            recorded = json.loads(BASELINE_PATH.read_text())
            assert ratio >= recorded["coalesced_over_serial"] / 2.0, (
                f"throughput ratio regressed to {ratio:.2f}x; baseline "
                f"records {recorded['coalesced_over_serial']:.2f}x"
            )
    finally:
        thread.stop()
