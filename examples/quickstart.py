#!/usr/bin/env python3
"""Quickstart: risk-aware routing on a Tier-1 backbone.

Builds the synthetic Teliasonera US topology, fits the full risk model
(historical disaster KDEs + census population impact), and compares
shortest-path routing with RiskRoute for one coast-to-coast flow and in
aggregate (the Equation 5/6 ratios).

Run:
    python examples/quickstart.py
"""

from repro import RiskModel, RoutingSession, network_by_name


def describe(route, label: str) -> None:
    cities = " > ".join(p.split(":", 1)[1] for p in route.path)
    print(f"{label:10s} {route.bit_miles:8.1f} mi  "
          f"{route.bit_risk_miles:10.1f} bit-risk-miles")
    print(f"{'':10s} via {cities}")


def main() -> None:
    network = network_by_name("Teliasonera")
    print(f"{network.name}: {network.pop_count} PoPs, "
          f"{network.link_count} links\n")

    # gamma_h tunes risk-averseness (the paper studies 1e5 and 1e6).
    model = RiskModel.for_network(network, gamma_h=1e6)
    session = RoutingSession(network, model)

    source = "Teliasonera:Miami, FL"
    target = "Teliasonera:Seattle, WA"
    pair = session.pair(source, target)
    print(f"Miami -> Seattle at gamma_h = 1e6:")
    describe(pair.shortest, "shortest")
    describe(pair.riskroute, "riskroute")
    reduction = 1.0 - pair.risk_ratio
    inflation = pair.distance_ratio - 1.0
    print(f"\nThis flow: {reduction:.1%} less outage risk for "
          f"{inflation:.1%} more miles.\n")

    result = session.all_pairs()
    print(f"All {result.pair_count} PoP pairs:")
    print(f"  risk reduction ratio   rr = {result.risk_reduction_ratio:.3f}")
    print(f"  distance increase ratio dr = {result.distance_increase_ratio:.3f}")


if __name__ == "__main__":
    main()
