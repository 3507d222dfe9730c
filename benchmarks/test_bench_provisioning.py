"""Benchmark: incremental greedy provisioning vs the rebuild path.

The pre-incremental implementation rebuilt the all-pairs component
matrices (n risk-weighted Dijkstra sweeps plus per-route dict
materialisation) up to three times per greedy iteration, regenerated
candidates with a pure-Python all-pairs Dijkstra each round, and scored
every candidate through four fresh n x n temporaries.  The incremental
layer builds the matrices once, folds each committed link in with the
O(n²) parametric edge-insertion update, and scores candidates as rank-4
matrix products over preallocated buffers.

This file pins both properties on the largest corpus network (Level3,
233 PoPs): greedy-8-links must stay >= 3x faster than the embedded
rebuild-per-iteration path while picking the identical link sequence
with matching totals, and must not regress by more than 2x against the
speedup recorded in ``provisioning_baseline.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.provisioning import ProvisioningAnalyzer
from repro.core.strategy import SweepStrategy
from repro.engine import RoutingEngine
from repro.geo.distance import haversine_miles
from repro.graph.shortest_path import all_pairs_shortest_paths
from repro.risk.model import RiskModel
from repro.topology.zoo import network_by_name

from .conftest import run_once

BASELINE_PATH = Path(__file__).with_name("provisioning_baseline.json")

#: Hard floor from the issue: incremental greedy >= 3x over the
#: per-iteration-rebuild path.
MIN_SPEEDUP = 3.0

LINKS = 8


# -- the pre-incremental implementation, verbatim modulo module layout ----


def seed_candidates(network):
    """Candidate generation via a private pure-Python all-pairs sweep:
    links up to 2000 miles that cut their endpoints' route mileage by
    more than 15%."""
    graph = network.distance_graph()
    sweeps = all_pairs_shortest_paths(graph)
    pops = network.pops()
    out = []
    for i, pop_a in enumerate(pops):
        dist_map = sweeps[pop_a.pop_id][0]
        for pop_b in pops[i + 1 :]:
            if network.has_link(pop_a.pop_id, pop_b.pop_id):
                continue
            if pop_b.pop_id not in dist_map:
                continue
            direct = haversine_miles(pop_a.location, pop_b.location)
            if direct > 2000.0:
                continue
            current = dist_map[pop_b.pop_id]
            if current <= 0.0:
                continue
            if direct / current < (1.0 - 0.15):
                out.append(
                    (pop_a.pop_id, pop_b.pop_id, direct, current)
                )
    return out


class _SeedMatrices:
    """The rebuild-era component matrices: per-route dict loops in, four
    n x n temporaries per scored candidate out.  ``engine`` is the one
    engine of ``network``'s current topology."""

    def __init__(self, network, model, engine):
        pop_ids = network.pop_ids()
        index = {pop_id: i for i, pop_id in enumerate(pop_ids)}
        n = len(pop_ids)
        engine.prefetch_per_source(pop_ids)
        dist = np.zeros((n, n), dtype=np.float64)
        risk = np.zeros((n, n), dtype=np.float64)
        for source in pop_ids:
            i = index[source]
            routes = engine.risk_routes_from(source, SweepStrategy.PER_SOURCE)
            for target, route in routes.items():
                j = index[target]
                dist[i, j] = route.metrics.distance_miles
                risk[i, j] = route.metrics.risk_sum
        shares = np.array([model.share(p) for p in pop_ids])
        self.index = index
        self.dist = dist
        self.risk = risk
        self.alpha = shares[:, None] + shares[None, :]
        self.node_risk = np.array([model.node_risk(p) for p in pop_ids])
        self._upper = np.triu_indices(n, k=1)
        self._base = self.dist + self.alpha * self.risk

    def baseline_total(self):
        return float(self._base[self._upper].sum())

    def candidate_total(self, candidate):
        pop_a, pop_b, w, _ = candidate
        a = self.index[pop_a]
        b = self.index[pop_b]
        base = self._base
        via_ab_d = self.dist[:, a][:, None] + w + self.dist[b, :][None, :]
        via_ab_r = (
            self.risk[:, a][:, None]
            + self.node_risk[b]
            + self.risk[b, :][None, :]
        )
        via_ba_d = self.dist[:, b][:, None] + w + self.dist[a, :][None, :]
        via_ba_r = (
            self.risk[:, b][:, None]
            + self.node_risk[a]
            + self.risk[a, :][None, :]
        )
        best = np.minimum(
            base,
            np.minimum(
                via_ab_d + self.alpha * via_ab_r,
                via_ba_d + self.alpha * via_ba_r,
            ),
        )
        return float(best[self._upper].sum())


def seed_greedy_links(network, model, count):
    """The rebuild-per-iteration greedy loop: fresh candidates, a fresh
    matrix build for scoring, and a fresh build for the actual total —
    every single iteration.  Each working graph gets one engine, shared
    by the build after its link lands and the next round's scoring
    build, so each graph is swept once."""
    working = network.copy()
    engine = RoutingEngine(working.distance_graph(), model)
    original = _SeedMatrices(working, model, engine).baseline_total()
    out = []
    for _ in range(count):
        candidates = seed_candidates(working)
        if not candidates:
            break
        matrices = _SeedMatrices(working, model, engine)
        totals = [matrices.candidate_total(c) for c in candidates]
        scored = sorted(
            zip(totals, candidates), key=lambda t: (t[0], t[1][0], t[1][1])
        )
        _, choice = scored[0]
        working.add_link(choice[0], choice[1])
        engine = RoutingEngine(working.distance_graph(), model)
        actual = _SeedMatrices(working, model, engine).baseline_total()
        out.append((choice, actual, original))
    return out


def test_provisioning_speedup_level3(benchmark):
    network = network_by_name("Level3")
    model = RiskModel.for_network(network)

    t0 = time.perf_counter()
    seed = seed_greedy_links(network, model, LINKS)
    seed_seconds = time.perf_counter() - t0

    analyzer = ProvisioningAnalyzer(network, model)
    t0 = time.perf_counter()
    fast = run_once(benchmark, lambda: analyzer.greedy_links(LINKS))
    fast_seconds = max(time.perf_counter() - t0, 1e-9)

    # The incremental path must choose the identical link sequence and
    # land on the same aggregates (association-only float differences).
    assert [
        (r.candidate.pop_a, r.candidate.pop_b) for r in fast
    ] == [(c[0], c[1]) for c, _, _ in seed]
    for fast_rec, (_, actual, original) in zip(fast, seed):
        assert fast_rec.aggregate_bit_risk == pytest.approx(
            actual, rel=1e-9
        )
        assert fast_rec.baseline_bit_risk == pytest.approx(
            original, rel=1e-9
        )

    # It really was incremental: one build, k in-place updates, most
    # rebuild sweeps avoided.
    stats = analyzer.stats
    assert stats.matrix_builds == 1
    assert stats.matrix_updates == LINKS
    assert stats.sweeps_avoided > 0

    speedup = seed_seconds / fast_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"incremental greedy only {speedup:.1f}x over the rebuild path "
        f"({seed_seconds:.3f}s vs {fast_seconds:.3f}s)"
    )

    # CI regression smoke: stay within 2x of the recorded speedup.
    if BASELINE_PATH.exists():
        recorded = json.loads(BASELINE_PATH.read_text())["speedup"]
        assert speedup >= recorded / 2.0, (
            f"speedup regressed to {speedup:.1f}x; "
            f"baseline records {recorded:.1f}x"
        )
