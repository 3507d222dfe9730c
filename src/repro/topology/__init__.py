"""Topology substrate: the 23-network corpus, peering, GraphML input."""

from .builders import build_network, mesh_links, place_pops
from .cities import ALL_CITIES, City, cities_in_states, city_by_name, top_cities
from .graphml import read_graphml
from .interdomain import (
    CO_LOCATION_MILES,
    CandidatePeering,
    InterdomainTopology,
)
from .network import Link, Network, NetworkTier, PoP
from .peering import (
    CORPUS_TRANSIT,
    PeeringGraph,
    corpus_peering,
    parse_caida_as_rel,
)
from .zoo import (
    REGIONAL_SPECS,
    TIER1_SPECS,
    all_networks,
    network_by_name,
    regional_networks,
    tier1_networks,
)

__all__ = [
    "City",
    "ALL_CITIES",
    "city_by_name",
    "cities_in_states",
    "top_cities",
    "PoP",
    "Link",
    "Network",
    "NetworkTier",
    "build_network",
    "place_pops",
    "mesh_links",
    "TIER1_SPECS",
    "REGIONAL_SPECS",
    "tier1_networks",
    "regional_networks",
    "all_networks",
    "network_by_name",
    "PeeringGraph",
    "corpus_peering",
    "parse_caida_as_rel",
    "CORPUS_TRANSIT",
    "InterdomainTopology",
    "CandidatePeering",
    "CO_LOCATION_MILES",
    "read_graphml",
]
