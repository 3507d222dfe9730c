#!/usr/bin/env python3
"""Bring your own network and your own risk priorities.

The paper notes that operators can substitute their own topology and
emphasise the hazards that matter to them (Section 5.2's per-class
weights).  This example:

1. builds a small custom ISP by hand (any Topology Zoo GraphML file
   works the same way via ``repro.topology.read_graphml``),
2. compares routing under the default hazard mix against a model where
   hurricanes are weighted 10x (a Gulf-coast operator's view), and
3. computes IP Fast Reroute backup next hops with the risk-aware metric
   (Section 3.1).

Run:
    python examples/custom_network.py
"""

from repro import RiskModel, RoutingSession
from repro.core import frr_backup_next_hops
from repro.disasters import EventType, all_event_kdes
from repro.geo import GeoPoint
from repro.risk import HistoricalRiskModel
from repro.topology import Network, PoP


def build_gulf_isp() -> Network:
    """A small Gulf-coast ISP with a northern bypass."""
    isp = Network("GulfNet", tier="regional", states=("TX", "LA", "MS", "AL", "GA", "TN", "AR"))
    sites = {
        "hou": ("Houston, TX", GeoPoint(29.76, -95.37)),
        "no": ("New Orleans, LA", GeoPoint(29.95, -90.07)),
        "mob": ("Mobile, AL", GeoPoint(30.69, -88.04)),
        "atl": ("Atlanta, GA", GeoPoint(33.75, -84.39)),
        "dal": ("Dallas, TX", GeoPoint(32.78, -96.80)),
        "mem": ("Memphis, TN", GeoPoint(35.15, -90.05)),
        "lr": ("Little Rock, AR", GeoPoint(34.75, -92.29)),
    }
    for key, (city, location) in sites.items():
        isp.add_pop(PoP(f"GulfNet:{key}", city, location))
    for a, b in (
        ("hou", "no"), ("no", "mob"), ("mob", "atl"),      # coastal path
        ("hou", "lr"), ("lr", "mem"), ("mem", "atl"),      # inland path
        ("hou", "dal"), ("dal", "lr"), ("dal", "mem"),     # Texas spur
    ):
        isp.add_link(f"GulfNet:{a}", f"GulfNet:{b}")
    return isp


def route_description(route) -> str:
    return " > ".join(p.split(":", 1)[1].split(",")[0] for p in route.path)


def main() -> None:
    isp = build_gulf_isp()
    print(f"{isp.name}: {isp.pop_count} PoPs, {isp.link_count} links\n")

    default_model = RiskModel.for_network(isp, gamma_h=1e6)
    default_session = RoutingSession(isp, default_model)

    # A Gulf operator that fears hurricanes above all else.
    weights = {event_type: 1.0 for event_type in EventType.ALL}
    weights[EventType.FEMA_HURRICANE] = 10.0
    hurricane_averse = HistoricalRiskModel(all_event_kdes(), weights)
    averse_model = RiskModel.for_network(
        isp, historical=hurricane_averse, gamma_h=1e6
    )
    averse_session = RoutingSession(isp, averse_model)

    src, dst = "GulfNet:hou", "GulfNet:atl"
    print("Houston -> Atlanta:")
    print(f"  default hazard mix : {route_description(default_session.route(src, dst))}")
    print(f"  hurricanes x10     : {route_description(averse_session.route(src, dst))}")
    print("  (the hurricane-averse model abandons the coastal corridor)\n")

    print("IP Fast Reroute backup next hops from Houston (risk-aware):")
    table = frr_backup_next_hops(averse_session, src)
    for target, hop in sorted(table.items()):
        target_city = target.split(":", 1)[1].split(",")[0]
        hop_city = hop.split(":", 1)[1].split(",")[0] if hop else "(no alternative)"
        print(f"  to {target_city:12s} backup via {hop_city}")


if __name__ == "__main__":
    main()
