#!/usr/bin/env python3
"""Hurricane Sandy rerouting: the paper's motivating scenario.

Before Hurricane Sandy, NTT, Level3 and Verizon manually rerouted around
risky PoPs.  This example automates that: advisory by advisory, the NHC
forecast text is parsed into a wind field, PoP forecast risk is swapped
into one long-lived routing session, and RiskRoute recomputes paths
(the session keeps its geographic sweeps across advisories).  We follow one flow (Atlanta -> Boston on
Tinet) and the network-wide risk-reduction ratio through the storm.

Run:
    python examples/hurricane_rerouting.py
"""

from repro import RiskModel, RoutingSession, network_by_name
from repro.forecast import advisory_text, snapshot_from_text, storm_advisories
from repro.risk import ForecastedRiskModel

NETWORK = "Tinet"
SOURCE = f"{NETWORK}:Atlanta, GA"
TARGET = f"{NETWORK}:Boston, MA"


def main() -> None:
    network = network_by_name(NETWORK)
    # gamma_h=1e5, gamma_f=1e3
    session = RoutingSession(network, RiskModel.for_network(network))

    print(f"Tracking {SOURCE.split(':')[1]} -> {TARGET.split(':')[1]} on "
          f"{NETWORK} through Hurricane Sandy\n")
    header = f"{'advisory':>8s}  {'time':26s} {'PoPs in scope':>13s} {'rr':>6s}  route"
    print(header)
    print("-" * len(header))

    advisories = storm_advisories("Sandy")
    for advisory in advisories[:: max(1, len(advisories) // 8)]:
        # Full pipeline: advisory -> NHC text -> NLP parse -> wind field.
        snapshot = snapshot_from_text(advisory_text(advisory))
        forecast = ForecastedRiskModel([snapshot])
        of_map = forecast.pop_risks(network)
        session.update_forecast(of_map)

        route = session.route(SOURCE, TARGET)
        ratios = session.all_pairs()
        in_scope = sum(1 for v in of_map.values() if v > 0)
        cities = " > ".join(
            p.split(":", 1)[1].split(",")[0] for p in route.path
        )
        print(
            f"{advisory.number:>8d}  {advisory.time.isoformat():26s} "
            f"{in_scope:>13d} {ratios.risk_reduction_ratio:>6.3f}  {cities}"
        )

    print("\nAs Sandy engulfs the northeast, the risk-reduction ratio "
          "grows and the chosen route bends inland, exactly the "
          "behaviour the paper reports for its Figure 12 case study.")


if __name__ == "__main__":
    main()
