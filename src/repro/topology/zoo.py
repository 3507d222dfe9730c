"""The 23-network study corpus (Section 4.1).

Rebuilds the paper's corpus synthetically: 7 Tier-1 networks with 354
total PoPs and 16 regional networks with 455 total PoPs in the
continental United States, with the exact per-network PoP counts the
paper reports (Table 2 lists the tier-1 counts; the regional split is
chosen to sum to 455 with footprints matching each provider's real
service region).

Every network is produced deterministically by
:mod:`repro.topology.builders`, seeded by its own name, so the corpus is
identical across runs and each network is built on its own, on first
use, at most once per process.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .builders import build_network
from .cities import City, cities_in_states, city_by_name, top_cities
from .network import Network, NetworkTier

__all__ = [
    "TIER1_SPECS",
    "REGIONAL_SPECS",
    "tier1_networks",
    "regional_networks",
    "all_networks",
    "network_by_name",
]


def _cities(*names: Tuple[str, str]) -> List[City]:
    return [city_by_name(name, state) for name, state in names]


#: Tier-1 specs: name -> (PoP count, target average degree, anchor cities).
#: PoP counts match Table 2 of the paper.  Level3's 233 PoPs cover the 233
#: largest metros; the smaller tier-1s use curated gateway-city lists that
#: mirror each carrier's real US footprint bias (NTT coastal, Sprint
#: central, Deutsche Telekom east-leaning gateways, ...).
TIER1_SPECS: Dict[str, Tuple[int, float, Sequence[Tuple[str, str]]]] = {
    "Level3": (233, 4.2, ()),
    "ATT": (
        25,
        4.4,
        (
            ("New York", "NY"), ("Los Angeles", "CA"), ("Chicago", "IL"),
            ("Houston", "TX"), ("Dallas", "TX"), ("Atlanta", "GA"),
            ("Washington", "DC"), ("San Francisco", "CA"), ("Seattle", "WA"),
            ("Denver", "CO"), ("Miami", "FL"), ("Phoenix", "AZ"),
            ("St. Louis", "MO"), ("Kansas City", "MO"), ("New Orleans", "LA"),
            ("Nashville", "TN"), ("Charlotte", "NC"), ("Orlando", "FL"),
            ("San Antonio", "TX"), ("Detroit", "MI"), ("Boston", "MA"),
            ("Philadelphia", "PA"), ("Cleveland", "OH"),
            ("Indianapolis", "IN"), ("Salt Lake City", "UT"),
        ),
    ),
    "Deutsche": (
        10,
        3.6,
        (
            ("New York", "NY"), ("Washington", "DC"), ("Chicago", "IL"),
            ("Dallas", "TX"), ("Los Angeles", "CA"), ("San Francisco", "CA"),
            ("Seattle", "WA"), ("Atlanta", "GA"), ("Miami", "FL"),
            ("Denver", "CO"),
        ),
    ),
    "NTT": (
        12,
        3.5,
        (
            ("Seattle", "WA"), ("San Jose", "CA"), ("Los Angeles", "CA"),
            ("San Francisco", "CA"), ("Dallas", "TX"), ("Houston", "TX"),
            ("Chicago", "IL"), ("New York", "NY"), ("Washington", "DC"),
            ("Miami", "FL"), ("Denver", "CO"), ("Minneapolis", "MN"),
        ),
    ),
    "Sprint": (
        24,
        3.7,
        (
            ("Kansas City", "MO"), ("Chicago", "IL"), ("Dallas", "TX"),
            ("Fort Worth", "TX"), ("Atlanta", "GA"), ("New York", "NY"),
            ("Washington", "DC"), ("Seattle", "WA"), ("San Jose", "CA"),
            ("Anaheim", "CA"), ("Denver", "CO"), ("Cheyenne", "WY"),
            ("Omaha", "NE"), ("St. Louis", "MO"), ("Nashville", "TN"),
            ("Orlando", "FL"), ("Miami", "FL"), ("New Orleans", "LA"),
            ("Houston", "TX"), ("Phoenix", "AZ"), ("Sacramento", "CA"),
            ("Portland", "OR"), ("Boston", "MA"), ("Pittsburgh", "PA"),
        ),
    ),
    "Tinet": (
        35,
        3.4,
        (
            ("New York", "NY"), ("Newark", "NJ"), ("Boston", "MA"),
            ("Philadelphia", "PA"), ("Washington", "DC"), ("Atlanta", "GA"),
            ("Miami", "FL"), ("Tampa", "FL"), ("Charlotte", "NC"),
            ("Chicago", "IL"), ("Detroit", "MI"), ("Cleveland", "OH"),
            ("Columbus", "OH"), ("Indianapolis", "IN"), ("St. Louis", "MO"),
            ("Kansas City", "MO"), ("Minneapolis", "MN"), ("Milwaukee", "WI"),
            ("Dallas", "TX"), ("Houston", "TX"), ("Austin", "TX"),
            ("San Antonio", "TX"), ("Denver", "CO"), ("Phoenix", "AZ"),
            ("Las Vegas", "NV"), ("Los Angeles", "CA"), ("San Diego", "CA"),
            ("San Jose", "CA"), ("San Francisco", "CA"), ("Sacramento", "CA"),
            ("Portland", "OR"), ("Seattle", "WA"), ("Salt Lake City", "UT"),
            ("Nashville", "TN"), ("New Orleans", "LA"),
        ),
    ),
    "Teliasonera": (
        15,
        3.2,
        (
            ("New York", "NY"), ("Newark", "NJ"), ("Washington", "DC"),
            ("Atlanta", "GA"), ("Miami", "FL"), ("Chicago", "IL"),
            ("Dallas", "TX"), ("Houston", "TX"), ("Denver", "CO"),
            ("Los Angeles", "CA"), ("San Jose", "CA"), ("San Francisco", "CA"),
            ("Seattle", "WA"), ("Boston", "MA"), ("Philadelphia", "PA"),
        ),
    ),
}

#: Regional specs: name -> (PoP count, target avg degree, footprint states).
#: Counts sum to 455.  Footprints mirror each provider's real region
#: (Telepak in the Gulf states, Iris in northern New England, NTS in
#: Texas, CoStreet in the Pacific Northwest, ...), which is what gives
#: the regional corpus its spread of disaster exposure.
REGIONAL_SPECS: Dict[str, Tuple[int, float, Sequence[str]]] = {
    "Abilene": (40, 2.5, ("WA", "CA", "CO", "TX", "MO", "IL", "IN", "GA", "DC", "NY")),
    "ANS": (16, 3.0, ("NY", "NJ", "PA", "MD", "VA", "DC", "MA", "CT")),
    "Bandcon": (30, 3.1, ("CA", "NV", "AZ", "OR", "WA")),
    "Bluebird": (20, 2.9, ("MO", "IL", "KS", "IA")),
    "British Tele.": (52, 3.2, ("NY", "NJ", "VA", "TX", "CA", "IL", "MA", "GA", "FL", "WA")),
    "CoStreet": (18, 2.7, ("OR", "WA", "ID")),
    "Digex": (14, 3.2, ("MD", "VA", "DC", "NJ", "NY", "PA")),
    "Epoch": (38, 3.0, ("TX", "LA", "OK", "NM", "AZ", "CA")),
    "Globalcenter": (44, 3.1, ("CA", "NY", "VA", "IL", "TX", "WA", "NJ", "FL")),
    "Goodnet": (33, 2.8, ("AZ", "CA", "NV", "UT", "NM", "TX")),
    "Gridnet": (25, 3.0, ("NC", "SC", "GA", "VA", "TN")),
    "Hibernia": (26, 3.1, ("NY", "NJ", "MA", "CT", "VA", "FL")),
    "Iris": (12, 2.8, ("ME", "NH", "VT", "MA")),
    "NTS": (24, 2.9, ("TX",)),
    "Telepak": (28, 2.9, ("MS", "LA", "AL", "TN")),
    "USA Network": (35, 3.1, ("NY", "PA", "OH", "IL", "MI", "IN", "WI", "MN", "MO", "NJ")),
}


@lru_cache(maxsize=None)
def _build(name: str) -> Network:
    """Build (and cache) one corpus network from its spec."""
    if name in TIER1_SPECS:
        count, degree, anchors = TIER1_SPECS[name]
        cities = _cities(*anchors) if anchors else top_cities(count)
        return build_network(
            name, cities, count, degree, tier=NetworkTier.TIER1
        )
    count, degree, states = REGIONAL_SPECS[name]
    return build_network(
        name,
        cities_in_states(list(states)),
        count,
        degree,
        tier=NetworkTier.REGIONAL,
        states=states,
    )


@lru_cache(maxsize=None)
def tier1_networks() -> Tuple[Network, ...]:
    """The 7 Tier-1 networks."""
    return tuple(_build(name) for name in TIER1_SPECS)


@lru_cache(maxsize=None)
def regional_networks() -> Tuple[Network, ...]:
    """The 16 regional networks."""
    return tuple(_build(name) for name in REGIONAL_SPECS)


def all_networks() -> Tuple[Network, ...]:
    """All 23 study networks, tier-1s first."""
    return tier1_networks() + regional_networks()


def network_by_name(name: str) -> Network:
    """Look up a corpus network by name; builds only that network.

    Raises:
        KeyError: for a name not in the corpus.
    """
    if name not in TIER1_SPECS and name not in REGIONAL_SPECS:
        raise KeyError(f"unknown network {name!r}")
    return _build(name)
