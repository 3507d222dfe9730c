"""Disaster outage simulation: closing the loop on RiskRoute's promise.

The paper argues that risk-averse routes fail less often; this module
tests that claim inside the reproduction.  Disasters are sampled from
the same kernel density fields that drive the routing metric, PoPs
within the event's damage radius fail, and precomputed primary routes
are scored: a route *survives* an event when none of its transit or
endpoint PoPs failed.

Used by the ablation benchmarks to show that RiskRoute paths survive
simulated disasters at a higher rate than shortest paths — and by the
failure-injection tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..disasters.catalog import catalog_of
from ..disasters.events import EventType
from ..engine import RoutingEngine
from ..geo.coords import GeoPoint
from ..geo.distance import great_circle_miles
from ..graph.shortest_path import NoPathError
from ..risk.model import RiskModel
from ..topology.network import Network
from .riskroute import RouteResult

__all__ = [
    "SimulatedDisaster",
    "SurvivalReport",
    "sample_disasters",
    "damage_mask",
    "failed_pops",
    "sampled_pair_routes",
    "route_survival",
]

#: Damage radius (miles) per event class — the area whose PoPs fail.
DAMAGE_RADIUS_MILES: Dict[str, float] = {
    EventType.FEMA_HURRICANE: 90.0,
    EventType.FEMA_TORNADO: 25.0,
    EventType.FEMA_STORM: 40.0,
    EventType.NOAA_EARTHQUAKE: 60.0,
    EventType.NOAA_WIND: 15.0,
}


@dataclass(frozen=True)
class SimulatedDisaster:
    """One sampled disaster occurrence."""

    event_type: str
    center: GeoPoint
    radius_miles: float


@dataclass(frozen=True)
class SurvivalReport:
    """Route survival under a disaster sample."""

    events: int
    pairs: int
    shortest_survival: float
    riskroute_survival: float

    @property
    def improvement(self) -> float:
        """Absolute survival-rate gain of RiskRoute over shortest path."""
        return self.riskroute_survival - self.shortest_survival


def sample_disasters(
    count: int,
    seed: Union[int, "np.random.Generator"] = 2013,
) -> List[SimulatedDisaster]:
    """Draw disasters by resampling the historical catalogs.

    Events are drawn class-proportionally to the catalog sizes (so wind
    events dominate, as in reality) with each occurrence placed at a
    historical event location — a nonparametric bootstrap of the same
    distribution the KDE risk fields estimate.

    ``seed`` may be an int or an already-constructed
    :class:`numpy.random.Generator` — the scenario plane threads one
    generator through every stochastic draw of a Monte Carlo run, so
    the whole run replays from a single integer seed.

    Raises:
        ValueError: for a non-positive count.
    """
    if count < 1:
        raise ValueError("count must be positive")
    classes = list(EventType.ALL)
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = np.random.default_rng(seed)
    catalogs = {c: catalog_of(c) for c in classes}
    weights = np.array([len(catalogs[c]) for c in classes], dtype=np.float64)
    weights /= weights.sum()
    picks = rng.choice(len(classes), size=count, p=weights)
    out: List[SimulatedDisaster] = []
    for class_index in picks:
        event_type = classes[int(class_index)]
        catalog = catalogs[event_type]
        # Same rng draw sequence as the historical locations-only
        # sampler: one integers(len) call per pick.
        row = int(rng.integers(len(catalog)))
        center = GeoPoint(float(catalog.lat[row]), float(catalog.lon[row]))
        out.append(
            SimulatedDisaster(
                event_type=event_type,
                center=center,
                radius_miles=DAMAGE_RADIUS_MILES[event_type],
            )
        )
    return out


def damage_mask(
    latlon_deg: "np.ndarray", disaster: SimulatedDisaster
) -> "np.ndarray":
    """Boolean mask of (lat, lon) degree rows inside the damage radius.

    The array-native damage test shared by :func:`failed_pops` and the
    cascade scenario plane — both paths run the identical vectorised
    haversine, so a PoP on the radius boundary fails (or survives) in
    both consistently.
    """
    center = disaster.center
    distances = great_circle_miles(latlon_deg, [[center.lat, center.lon]])
    return distances[:, 0] <= disaster.radius_miles


def failed_pops(
    network: Network, disaster: SimulatedDisaster
) -> Set[str]:
    """PoPs inside the disaster's damage radius."""
    mask = damage_mask(network.latlon(), disaster)
    return {
        pop.pop_id for pop, hit in zip(network.pops(), mask) if hit
    }


def sampled_pair_routes(
    network: Network,
    model: RiskModel,
    sample_pairs: int = 60,
    *,
    engine: Optional[RoutingEngine] = None,
) -> List[Tuple[RouteResult, RouteResult]]:
    """Precompute (shortest, riskroute) routes for a strided pair sample.

    The exact pair enumeration, stride and unroutable-pair handling
    behind :func:`route_survival` — factored out so the cascade
    scenario plane scores survival over the *same* route sample, which
    is what makes its no-defense/infinite-capacity degenerate case
    reduce to :func:`route_survival` bit for bit.  ``engine`` is an
    engine over ``network`` already bound to ``model`` (the cascade
    simulator passes its own, so the sample reuses its sweeps); one is
    built when omitted.

    Raises:
        ValueError: for a non-positive pair sample or when no pair in
            the network is routable.
    """
    if sample_pairs < 1:
        raise ValueError("sample_pairs must be positive")
    if engine is None:
        engine = RoutingEngine(network.distance_graph(), model)
    pop_ids = network.pop_ids()
    pairs = [
        (a, b) for i, a in enumerate(pop_ids) for b in pop_ids[i + 1 :]
    ]
    stride = max(1, len(pairs) // sample_pairs)
    routes: List[Tuple[RouteResult, RouteResult]] = []
    for source, target in pairs[::stride]:
        try:
            shortest = engine.shortest_path(source, target)
            risky = engine.risk_route(source, target)
        except NoPathError:
            continue
        routes.append((shortest, risky))
    if not routes:
        raise ValueError("no routable pairs in the network")
    return routes


def route_survival(
    network: Network,
    model: RiskModel,
    disasters: Sequence[SimulatedDisaster],
    sample_pairs: int = 60,
) -> SurvivalReport:
    """Compare shortest-path and RiskRoute survival over a disaster set.

    A (pair, event) trial survives when no PoP of the precomputed route
    fails; endpoint failures count against both routings equally.

    Raises:
        ValueError: with no disasters or non-positive pair sample.
    """
    if not disasters:
        raise ValueError("need at least one disaster")
    routes = [
        (set(shortest.path), set(risky.path))
        for shortest, risky in sampled_pair_routes(
            network, model, sample_pairs
        )
    ]

    failures = [failed_pops(network, d) for d in disasters]
    shortest_hits = 0
    risky_hits = 0
    trials = 0
    for failed in failures:
        if not failed:
            continue
        for shortest, risky in routes:
            trials += 1
            if not (shortest & failed):
                shortest_hits += 1
            if not (risky & failed):
                risky_hits += 1
    if trials == 0:
        # No disaster touched the network: everything survives.
        return SurvivalReport(
            events=len(disasters),
            pairs=len(routes),
            shortest_survival=1.0,
            riskroute_survival=1.0,
        )
    return SurvivalReport(
        events=len(disasters),
        pairs=len(routes),
        shortest_survival=shortest_hits / trials,
        riskroute_survival=risky_hits / trials,
    )
