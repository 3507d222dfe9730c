"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation switches one ingredient of the framework off (or swaps it)
and measures the consequence, validating that the ingredient earns its
place:

* population impact (alpha) vs uniform impact,
* the per-source routing approximation vs exact per-pair optimization,
* OSPF-exported composite weights vs native RiskRoute,
* seasonal vs annual risk fields,
* end-to-end payoff: route survival under simulated disasters.
"""

import pytest

from repro.core.ospf import ospf_fidelity
from repro.core.simulation import route_survival, sample_disasters
from repro.disasters.seasonal import seasonal_historical_model
from repro.risk.model import RiskModel
from repro.session import RoutingSession
from repro.topology.zoo import network_by_name

from .conftest import run_once


def test_ablation_population_impact(benchmark):
    """alpha_ij = c_i + c_j vs uniform impact: population weighting must
    change where risk-aversion is spent without breaking the ratios."""
    network = network_by_name("Sprint")
    model = RiskModel.for_network(network, gamma_h=1e6)
    uniform_shares = {p: 1.0 / network.pop_count for p in network.pop_ids()}
    uniform_model = RiskModel(
        uniform_shares,
        {p: model.historical_risk(p) for p in network.pop_ids()},
        {p: 0.0 for p in network.pop_ids()},
        gamma_h=1e6,
    )

    def run():
        graph = network.distance_graph()
        weighted = RoutingSession(graph, model).all_pairs()
        uniform = RoutingSession(graph, uniform_model).all_pairs()
        return weighted, uniform

    weighted, uniform = run_once(benchmark, run)
    assert weighted.risk_reduction_ratio > 0.0
    assert uniform.risk_reduction_ratio > 0.0
    # The two objectives genuinely differ (weighting matters) ...
    assert weighted.risk_reduction_ratio != pytest.approx(
        uniform.risk_reduction_ratio, abs=1e-4
    )
    # ... but remain the same order of magnitude (sanity).
    assert (
        0.2
        < weighted.risk_reduction_ratio / uniform.risk_reduction_ratio
        < 5.0
    )


def test_ablation_approximation_quality(benchmark):
    """The per-source approximation must track exact per-pair
    optimization closely (it underpins the large-network sweeps)."""
    network = network_by_name("Tinet")
    model = RiskModel.for_network(network, gamma_h=1e6)

    def run():
        session = RoutingSession(network.distance_graph(), model)
        exact = session.all_pairs(strategy="exact")
        approx = session.all_pairs(strategy="per-source")
        return exact, approx

    exact, approx = run_once(benchmark, run)
    assert abs(
        exact.risk_reduction_ratio - approx.risk_reduction_ratio
    ) < 0.02
    # The approximation never reports a better optimum than exact search.
    assert approx.risk_reduction_ratio <= exact.risk_reduction_ratio + 1e-9


def test_ablation_ospf_export(benchmark):
    """Composite OSPF weights must approximate RiskRoute within a few
    percent on the small tier-1s (Section 3.1's deployment path)."""

    def run():
        out = {}
        for name in ("Deutsche", "NTT", "Teliasonera"):
            network = network_by_name(name)
            model = RiskModel.for_network(network, gamma_h=1e6)
            out[name] = ospf_fidelity(network, model, sample_pairs=40)
        return out

    fidelities = run_once(benchmark, run)
    for name, fidelity in fidelities.items():
        assert 1.0 - 1e-9 <= fidelity < 1.15, name


def test_ablation_seasonal_risk(benchmark):
    """September (hurricane season) must price Gulf-coast PoPs higher
    than February, shifting the ratios of a Gulf-exposed network."""
    network = network_by_name("Teliasonera")

    def run():
        results = {}
        for month in (2, 9):
            model = RiskModel.for_network(
                network,
                historical=seasonal_historical_model(month),
                gamma_h=1e6,
            )
            results[month] = RoutingSession(
                network.distance_graph(), model
            ).all_pairs()
        return results

    results = run_once(benchmark, run)
    assert results[9].risk_reduction_ratio > 0.0
    # Seasonality changes the answer (the paper's simplification is lossy).
    assert results[9].risk_reduction_ratio != pytest.approx(
        results[2].risk_reduction_ratio, abs=1e-3
    )


def test_ablation_anticipatory_forecast(benchmark):
    """Anticipatory routing (cone-projected o_f) must start pricing the
    storm's path *before* the reactive wind field reaches it."""
    from repro.forecast.projection import anticipatory_snapshots
    from repro.forecast.storms import storm_advisories
    from repro.risk.forecasted import ForecastedRiskModel
    from repro.forecast.risk import snapshot_from_advisory

    network = network_by_name("Tinet")

    def run():
        rows = []
        for advisory in storm_advisories("Sandy")[30:55:6]:
            reactive = ForecastedRiskModel(
                [snapshot_from_advisory(advisory)]
            ).pops_in_scope(network)
            anticipatory = ForecastedRiskModel(
                anticipatory_snapshots(advisory)
            ).pops_in_scope(network)
            rows.append((advisory.number, len(reactive), len(anticipatory)))
        return rows

    rows = run_once(benchmark, run)
    # The anticipatory footprint always contains the reactive one...
    assert all(ahead >= now for _, now, ahead in rows)
    # ...and genuinely leads it at least once pre-landfall.
    assert any(ahead > now for _, now, ahead in rows)


def test_ablation_route_survival(benchmark):
    """The end-to-end claim: risk-averse routes survive simulated
    disasters at least as often as shortest paths, on every network
    tested."""

    def run():
        disasters = sample_disasters(400, seed=99)
        out = {}
        for name in ("Teliasonera", "Sprint", "NTT"):
            network = network_by_name(name)
            model = RiskModel.for_network(network, gamma_h=1e6)
            out[name] = route_survival(network, model, disasters)
        return out

    reports = run_once(benchmark, run)
    improvements = []
    for name, report in reports.items():
        assert report.riskroute_survival >= report.shortest_survival - 0.01, name
        improvements.append(report.improvement)
    # Risk-aware routing helps somewhere in the corpus.
    assert max(improvements) > 0.0
