"""Benchmark: the sweep core at continental scale.

Two tiers, one of which is the CI smoke tier (``-k smoke``):

* **Landmark pruning (smoke)** — targeted pair queries (``csr_sweep``
  with ``bounds=``) on a synthetic 1k-PoP continental topology must
  skip >= 50% of node settlements under the ALT + great-circle bounds,
  at unchanged distances.
* **5k-PoP budget (full)** — the all-pairs sweep over the 5k-PoP
  synthetic continental backbone, one heapq
  :func:`~repro.engine.sweep.csr_sweep` per source, must finish under
  the recorded budget in ``sweep_scale_baseline.json``, and
  engine-level targeted routing on the same topology must clear the
  50% skip floor with exact routes.

Absolute times land in the baseline JSON (regenerate on a quiet
machine); CI asserts the floor and the budget, not the raw numbers.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

import repro.engine.engine as engine_module
from repro.engine import CsrGraph, RoutingEngine, csr_sweep
from repro.engine.landmarks import LandmarkIndex
from repro.risk.model import RiskModel
from repro.topology.builders import continental_network

from .conftest import run_once

BASELINE_PATH = Path(__file__).with_name("sweep_scale_baseline.json")

#: Hard floor: landmark bounds skip >= 50% of settlements.
MIN_SKIP = 0.5


def _baseline():
    return json.loads(BASELINE_PATH.read_text())


def _csr_arrays(network, model):
    graph = network.distance_graph()
    csr = CsrGraph(graph)
    risk = np.asarray(
        [model.node_risk(node) for node in csr.node_ids], dtype=np.float64
    )
    entry_risk = risk[np.asarray(csr.indices, dtype=np.int64)]
    return csr, entry_risk


def _synthetic_model(network, seed=7):
    """A cheap deterministic risk field for synthetic topologies.

    ``RiskModel.for_network`` prices the real disaster corpus (O(90s)
    at 5k PoPs); scale benchmarks only need *a* positive risk field
    with realistic magnitudes, so draw one from a seeded rng.  The
    corpus model's per-PoP outage fractions sit in roughly
    [0.02, 0.9] with a median near 0.09; uniform [0, 0.2] keeps the
    risk-vs-mileage balance of the real objective under the default
    gammas.
    """
    rng = np.random.default_rng(seed)
    ids = [pop.pop_id for pop in network.pops()]
    raw = rng.uniform(0.5, 1.5, len(ids))
    raw /= raw.sum()
    shares = {pid: float(v) for pid, v in zip(ids, raw)}
    historical = {
        pid: float(v) for pid, v in zip(ids, rng.uniform(0.0, 0.2, len(ids)))
    }
    forecast = {
        pid: float(v) for pid, v in zip(ids, rng.uniform(0.0, 0.2, len(ids)))
    }
    return RiskModel(shares, historical, forecast)


def test_landmark_pruning_smoke(benchmark):
    network = continental_network(pop_count=1000, seed=0)
    model = _synthetic_model(network)
    csr, entry_risk = _csr_arrays(network, model)
    n = csr.node_count
    latlon = network.latlon()
    index = LandmarkIndex.build(
        csr.indptr, csr.indices, csr.weights, k=8, latlon=latlon
    )
    rng = np.random.default_rng(99)
    pairs = [
        (int(rng.integers(n)), int(rng.integers(n))) for _ in range(30)
    ]
    shares = np.asarray([model.share(node) for node in csr.node_ids])

    def query_all():
        settled = 0
        for source, target in pairs:
            alpha = float(shares[source] + shares[target])
            result = csr_sweep(
                csr.indptr_list, csr.indices_list, csr.weights_list,
                entry_risk, source, alpha, target=target,
                bounds=index.lower_bounds(target).tolist(),
            )
            settled += result.settled
            full = csr_sweep(
                csr.indptr_list, csr.indices_list, csr.weights_list,
                entry_risk, source, alpha,
            )
            assert result.dist[target] == full.dist[target]
        return settled

    settled = run_once(benchmark, query_all)
    skip = 1.0 - settled / (len(pairs) * n)
    assert skip >= MIN_SKIP, (
        f"landmark bounds skipped only {skip:.1%} of settlements"
    )


def test_continental_scale_budget(benchmark, monkeypatch):
    baseline = _baseline()["continental"]
    network = continental_network(pop_count=baseline["pops"], seed=0)
    model = _synthetic_model(network)
    csr, entry_risk = _csr_arrays(network, model)
    n = csr.node_count
    mean_share = 1.0 / n  # synthetic shares are normalised
    alpha = 2.0 * mean_share
    arrays = (csr.indptr_list, csr.indices_list, csr.weights_list,
              entry_risk.tolist())

    def all_pairs_sweep():
        return sum(
            csr_sweep(*arrays, source, alpha).settled == n
            for source in range(n)
        )

    t0 = time.perf_counter()
    reached = run_once(benchmark, all_pairs_sweep)
    elapsed = time.perf_counter() - t0

    assert reached == n  # connected by construction: every sweep full
    assert elapsed <= baseline["budget_seconds"], (
        f"5k all-pairs sweep took {elapsed:.1f}s; "
        f"budget is {baseline['budget_seconds']:.0f}s"
    )

    # Engine-level targeted routing on the same topology: >= 50% of
    # settlements skipped, routes identical to full sweeps.
    graph = network.distance_graph()
    pruned = RoutingEngine(graph, model)
    pruned.set_coordinates(network.latlon())
    exact = RoutingEngine(graph, model)
    rng = np.random.default_rng(13)
    ids = pruned.node_ids
    for _ in range(12):
        source = ids[int(rng.integers(n))]
        target = ids[int(rng.integers(n))]
        if source == target:
            continue
        a = pruned.risk_route(source, target)
        with monkeypatch.context() as patch:
            # No landmark bounds: no graph is big enough for A*, so the
            # pair runs the full sweep's own loop, stopped at the target.
            patch.setattr(engine_module, "TARGETED_MIN_NODES", n + 1)
            b = exact.risk_route(source, target)
        assert a.metrics == b.metrics
    stats = pruned.targeted_stats()
    skip = 1.0 - stats["settled"] / (stats["queries"] * n)
    assert skip >= MIN_SKIP, (
        f"targeted engine queries skipped only {skip:.1%} of settlements"
    )
