"""Benchmark: batched RoutingEngine vs the seed per-pair routing path.

The seed computed all-pairs intradomain ratios by rebuilding dict-based
Dijkstra state per source and re-scoring every chosen path with
``path_metrics`` — no sweep reuse across queries.  The engine freezes
the topology into CSR arrays and memoizes sweeps and aggregates, so a
warm session answers the same question from cache.

This file pins both properties on the largest corpus network (Level3,
233 PoPs), with byte-identical rr/dr on every side (all sum pairs with
targets in node order).  The warm engine must stay >= 3x faster than
the seed path and must not regress by more than 2x against the speedup
recorded in ``engine_baseline.json``.  A fresh session — cold sweeps,
cold caches — must also stay >= 3x faster than the seed path: it sums
the pairs from per-sweep component arrays instead of route objects.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.bitrisk import path_metrics
from repro.core.ratios import RatioResult
from repro.core.riskroute import PairRoutes, RouteResult
from repro.graph.shortest_path import dijkstra, reconstruct_path
from repro.risk.model import RiskModel
from repro.session import RoutingSession
from repro.topology.zoo import network_by_name
from tests.oracles import risk_dijkstra

from .conftest import run_once

BASELINE_PATH = Path(__file__).with_name("engine_baseline.json")

#: Hard floor: warm engine, and a fresh session, >= 3x over the seed
#: path.
MIN_SPEEDUP = 3.0


def seed_all_pairs_ratios(graph, model):
    """The seed's all-pairs loop, modulo module layout and target order.

    Per-source approximation (Level3 is far above the 60-PoP exact
    cutoff): one plain Dijkstra + one risk-weighted Dijkstra per
    source, every path re-scored through ``path_metrics``.  Targets are
    visited in node order, the order the engine sums pairs in; the seed
    visited them in the order its search first touched them.
    """
    node_risk = {node: model.node_risk(node) for node in graph.nodes()}
    shares = [model.share(node) for node in graph.nodes()]
    mean_share = sum(shares) / len(shares)
    risk_ratios = []
    distance_ratios = []
    for source in graph.nodes():
        dist, parent = dijkstra(graph, source)
        shortest = {}
        for target in dist:
            if target == source:
                continue
            path = reconstruct_path(parent, source, target)
            shortest[target] = RouteResult(
                source, target, path_metrics(graph, path, model)
            )
        alpha = model.share(source) + mean_share
        rdist, rparent = risk_dijkstra(graph, node_risk, alpha, source)
        risky = {}
        for target in rdist:
            if target == source:
                continue
            path = reconstruct_path(rparent, source, target)
            risky[target] = RouteResult(
                source, target, path_metrics(graph, path, model)
            )
        for target in graph.nodes():
            if target not in shortest or target not in risky:
                continue
            pair = PairRoutes(
                shortest=shortest[target], riskroute=risky[target]
            )
            risk_ratios.append(pair.risk_ratio)
            distance_ratios.append(pair.distance_ratio)
    return _aggregate(risk_ratios, distance_ratios)


def _aggregate(risk_ratios, distance_ratios):
    return RatioResult(
        risk_reduction_ratio=1.0 - sum(risk_ratios) / len(risk_ratios),
        distance_increase_ratio=sum(distance_ratios) / len(distance_ratios)
        - 1.0,
        pair_count=len(risk_ratios),
    )


def test_engine_speedup_level3(benchmark):
    network = network_by_name("Level3")
    model = RiskModel.for_network(network)
    graph = network.distance_graph()

    t0 = time.perf_counter()
    seed_result = seed_all_pairs_ratios(graph, model)
    seed_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    cold_result = RoutingSession(network, model).all_pairs()
    cold_seconds = time.perf_counter() - t0
    assert cold_result == seed_result  # rr, dr and pair_count, exactly
    cold_speedup = seed_seconds / cold_seconds
    assert cold_speedup >= MIN_SPEEDUP, (
        f"fresh session only {cold_speedup:.1f}x over the seed path "
        f"({seed_seconds:.3f}s vs {cold_seconds:.3f}s)"
    )

    session = RoutingSession(network, model)
    session.all_pairs()  # warm the sweep and result caches

    t0 = time.perf_counter()
    warm_result = run_once(benchmark, session.all_pairs)
    warm_seconds = max(time.perf_counter() - t0, 1e-9)

    # Identical values, not merely close: the engine replicates the
    # seed's relaxation order and tie-breaks, and both loops sum pairs
    # in the same order.
    assert warm_result.risk_reduction_ratio == seed_result.risk_reduction_ratio
    assert (
        warm_result.distance_increase_ratio
        == seed_result.distance_increase_ratio
    )
    assert warm_result.pair_count == seed_result.pair_count

    speedup = seed_seconds / warm_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"warm engine only {speedup:.1f}x over the seed path "
        f"({seed_seconds:.3f}s vs {warm_seconds:.3f}s)"
    )

    # CI regression smoke: stay within 2x of the recorded speedup.
    if BASELINE_PATH.exists():
        recorded = json.loads(BASELINE_PATH.read_text())["speedup"]
        assert speedup >= recorded / 2.0, (
            f"speedup regressed to {speedup:.1f}x; "
            f"baseline records {recorded:.1f}x"
        )
