#!/usr/bin/env python3
"""An operator's annual risk-planning review, end to end.

Combines the framework's extension modules the way a network operations
team would in a yearly planning cycle for the Sprint backbone:

1. **Seasonal exposure** — how does September (hurricane season) change
   the network-wide ratios vs February?
2. **Traffic-weighted reality check** — are the gains still there when
   pairs are weighted by a gravity-model demand matrix?
3. **Monitoring deployment** — where to place 4 outage monitors to watch
   the riskiest infrastructure.
4. **Backup transit diversity** — which tier-1 is the most risk-disjoint
   backup partner (shared-risk analysis)?
5. **The payoff** — survival rates of RiskRoute vs shortest paths under
   2,000 simulated disasters.

Run:
    python examples/operator_planning.py
"""

from repro import RiskModel, RoutingSession, network_by_name
from repro.core import (
    place_monitors,
    route_survival,
    sample_disasters,
    shared_risk_report,
)
from repro.disasters.seasonal import seasonal_historical_model
from repro.traffic import gravity_matrix, traffic_weighted_ratios

NETWORK = "Sprint"


def seasonal_review(network) -> None:
    print("== 1. Seasonal exposure ==")
    for month, label in ((2, "February"), (9, "September")):
        model = RiskModel.for_network(
            network, historical=seasonal_historical_model(month), gamma_h=1e6
        )
        result = RoutingSession(network, model).all_pairs()
        print(f"  {label:10s} rr={result.risk_reduction_ratio:.3f} "
              f"dr={result.distance_increase_ratio:.3f}")
    print()


def traffic_review(network, model) -> None:
    print("== 2. Traffic-weighted gains ==")
    session = RoutingSession(network, model)
    uniform = session.all_pairs()
    weighted = traffic_weighted_ratios(session, gravity_matrix(network))
    print(f"  uniform pairs    rr={uniform.risk_reduction_ratio:.3f}")
    print(f"  demand-weighted  rr={weighted.ratios.risk_reduction_ratio:.3f}  "
          f"(bit-risk volume cut {weighted.volume_reduction:.1%})")
    print()


def monitoring_review(network, model) -> None:
    print("== 3. Monitor placement (greedy risk coverage) ==")
    placement = place_monitors(network, model, 4)
    for rank, monitor in enumerate(placement.monitors, start=1):
        print(f"  {rank}. {monitor.split(':', 1)[1]}")
    print(f"  -> {placement.coverage_fraction:.0%} of network risk observed\n")


def backup_partner_review(network) -> None:
    print("== 4. Most risk-disjoint backup transit ==")
    scored = []
    for candidate in ("Level3", "ATT", "NTT", "Teliasonera", "Deutsche"):
        report = shared_risk_report(network, network_by_name(candidate))
        scored.append((report.diversification_score, candidate, report))
    scored.sort(reverse=True)
    for score, name, report in scored:
        print(f"  {name:12s} diversification={score:.3f} "
              f"(co-location {report.colocation_fraction_a:.0%}, "
              f"profile divergence {report.risk_profile_divergence:.3f})")
    print(f"  -> best partner: {scored[0][1]}\n")


def survival_review(network, model) -> None:
    print("== 5. Simulated-disaster survival ==")
    disasters = sample_disasters(2000, seed=42)
    report = route_survival(network, model, disasters, sample_pairs=80)
    print(f"  shortest-path survival : {report.shortest_survival:.1%}")
    print(f"  RiskRoute survival     : {report.riskroute_survival:.1%}")
    print(f"  improvement            : {report.improvement:+.1%}")


def main() -> None:
    network = network_by_name(NETWORK)
    model = RiskModel.for_network(network, gamma_h=1e6)
    print(f"Annual risk review for {NETWORK} "
          f"({network.pop_count} PoPs, {network.link_count} links)\n")
    seasonal_review(network)
    traffic_review(network, model)
    monitoring_review(network, model)
    backup_partner_review(network)
    survival_review(network, model)


if __name__ == "__main__":
    main()
