#!/usr/bin/env python3
"""Hurricane rerouting over the wire: drive a live riskroute daemon.

Same motivating scenario as ``hurricane_rerouting.py`` — advisory by
advisory through Hurricane Sandy, RiskRoute bends one Tinet flow away
from the coast — but here the routing runs in a *server* and this
script is a plain network client.  Each NHC advisory becomes an
``update_forecast`` call that hot-swaps the daemon's risk model; the
fingerprint echoed in every reply shows the swap took effect, and the
``stats`` op at the end shows what the serving layer did (batches,
full sweeps computed, forecast swaps).

Run against an in-process daemon (default):
    python examples/service_client.py

Or against a daemon you started yourself:
    riskroute serve Tinet --port 4174 &
    python examples/service_client.py --connect 127.0.0.1:4174
"""

import argparse

from repro import RiskModel, network_by_name
from repro.forecast import advisory_text, snapshot_from_text, storm_advisories
from repro.risk import ForecastedRiskModel
from repro.server import RiskRouteClient, ServerConfig, ServerThread
from repro.session import RoutingSession

NETWORK = "Tinet"
SOURCE = f"{NETWORK}:Atlanta, GA"
TARGET = f"{NETWORK}:Boston, MA"


def run(client: RiskRouteClient) -> None:
    health = client.health()
    print(f"connected: {health['network']} ({health['pops']} PoPs), "
          f"model fingerprint {health['risk_fingerprint'][:12]}\n")

    header = (f"{'advisory':>8s}  {'time':26s} {'PoPs in scope':>13s} "
              f"{'rr':>6s}  {'fingerprint':12s}  route")
    print(header)
    print("-" * len(header))

    network = network_by_name(NETWORK)
    advisories = storm_advisories("Sandy")
    for advisory in advisories[:: max(1, len(advisories) // 8)]:
        # Advisory -> NHC text -> NLP parse -> wind field, client-side;
        # the daemon only ever sees the resulting o_f map.
        snapshot = snapshot_from_text(advisory_text(advisory))
        of_map = ForecastedRiskModel([snapshot]).pop_risks(network)
        client.update_forecast(of_map)

        route = client.route(SOURCE, TARGET)
        ratios = client.ratios()
        in_scope = sum(1 for v in of_map.values() if v > 0)
        cities = " > ".join(
            p.split(":", 1)[1].split(",")[0] for p in route["path"]
        )
        print(
            f"{advisory.number:>8d}  {advisory.time.isoformat():26s} "
            f"{in_scope:>13d} {ratios['risk_reduction_ratio']:>6.3f}  "
            f"{client.last_fingerprint[:12]}  {cities}"
        )

    stats = client.stats()
    print(f"\nserver saw {stats['requests']} requests in "
          f"{stats['batches']} batches, {stats['sweeps_computed']} "
          f"full sweeps, {stats['forecast_swaps']} forecast swaps; "
          f"p99 latency {stats['p99_ms']:.1f} ms")
    print("Every reply above is tagged with the fingerprint of exactly "
          "the advisory that computed it — the daemon swaps risk models "
          "between batches, never inside one.")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--connect", metavar="HOST:PORT",
        help=f"use a running daemon (expects it to serve {NETWORK}) "
             "instead of starting one in-process",
    )
    args = parser.parse_args()

    if args.connect:
        host, _, port = args.connect.rpartition(":")
        with RiskRouteClient(host or "127.0.0.1", int(port)) as client:
            run(client)
        return

    network = network_by_name(NETWORK)
    session = RoutingSession(network, RiskModel.for_network(network))
    with ServerThread(session, ServerConfig(batch_linger=0.002)) as (host, port):
        print(f"started in-process daemon on {host}:{port}")
        with RiskRouteClient(host, port) as client:
            run(client)


if __name__ == "__main__":
    main()
