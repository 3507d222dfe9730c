"""Seeded Monte Carlo over correlated-failure scenarios.

One run draws ``scenarios`` correlated-failure events — KDE-bootstrap
disasters (:func:`repro.core.simulation.sample_disasters`) interleaved
with shared-risk-group activations (:mod:`repro.scenario.srg`) — and
plays each to cascade fixpoint under both provisioning policies with
one shared :class:`~repro.scenario.cascade.CascadeSimulator`.

Determinism is the design center: every random draw happens up front
from a single :class:`numpy.random.Generator`, after which scenarios
are pure computation played in one loop in draw order, so one seed
replays the same report — the property the determinism tests pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.simulation import damage_mask, sample_disasters
from ..engine import RoutingEngine
from ..risk.model import RiskModel
from ..topology.network import Network
from .cascade import POLICIES, CascadeConfig, CascadeResult, CascadeSimulator
from .srg import SrgIndex, infer_srgs

__all__ = [
    "PolicyMetrics",
    "ScenarioConfig",
    "ScenarioReport",
    "run_monte_carlo",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """One Monte Carlo run's tuning.

    Args:
        scenarios: correlated-failure events to draw.
        seed: single integer replaying the entire run.
        srg_fraction: probability a scenario is an SRG activation
            rather than a sampled disaster (ignored when the network
            yields no groups).
        corridor_miles: SRG corridor cell size.
        sample_pairs: survival route sample size (as in
            :func:`repro.core.simulation.route_survival`).
        cascade: cascade tuning applied to every scenario.
    """

    scenarios: int = 500
    seed: int = 2013
    srg_fraction: float = 0.5
    corridor_miles: float = 50.0
    sample_pairs: int = 60
    cascade: CascadeConfig = field(default_factory=CascadeConfig)

    def __post_init__(self) -> None:
        if self.scenarios < 1:
            raise ValueError("scenarios must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0.0 <= self.srg_fraction <= 1.0:
            raise ValueError("srg_fraction must be within [0, 1]")
        # NaN fails both comparisons, so it is caught with the infinities.
        if not 0 < self.corridor_miles < math.inf:
            raise ValueError("corridor_miles must be positive and finite")
        if self.sample_pairs < 1:
            raise ValueError("sample_pairs must be >= 1")


@dataclass(frozen=True)
class PolicyMetrics:
    """Aggregated resilience metrics for one provisioning policy.

    Attributes:
        policy: ``"shortest"`` or ``"riskroute"``.
        scenarios: events aggregated.
        route_survival: surviving (route, event) trials / all trials.
        demand_survival: mean served-demand fraction at fixpoint.
        unserved_demand: mean unserved-demand fraction (the paper-style
            headline: lower is better).
        mean_cascade_depth: mean overload rounds to fixpoint.
        max_cascade_depth: deepest cascade observed.
        depth_distribution: ``{depth: scenario count}``.
        overload_trips: total elements tripped by overload.
        partitions: scenarios ending with the surviving PoPs split.
        mttf_events: MTTF-style time-to-partition — expected number of
            scenario events until the first partition (geometric
            estimate ``scenarios / partitions``); ``None`` when no
            scenario partitioned the network.
    """

    policy: str
    scenarios: int
    route_survival: float
    demand_survival: float
    unserved_demand: float
    mean_cascade_depth: float
    max_cascade_depth: int
    depth_distribution: Dict[int, int]
    overload_trips: int
    partitions: int
    mttf_events: Optional[float]

    def as_dict(self) -> Dict[str, object]:
        """JSON-shaped view (depth histogram keys become strings)."""
        return {
            "policy": self.policy,
            "scenarios": self.scenarios,
            "route_survival": self.route_survival,
            "demand_survival": self.demand_survival,
            "unserved_demand": self.unserved_demand,
            "mean_cascade_depth": self.mean_cascade_depth,
            "max_cascade_depth": self.max_cascade_depth,
            "depth_distribution": {
                str(depth): count
                for depth, count in sorted(self.depth_distribution.items())
            },
            "overload_trips": self.overload_trips,
            "partitions": self.partitions,
            "mttf_events": self.mttf_events,
        }


@dataclass(frozen=True)
class ScenarioReport:
    """RiskRoute-vs-shortest comparison under cascading failures."""

    network: str
    scenarios: int
    seed: int
    srg_groups: int
    srg_activations: int
    disaster_events: int
    shortest: PolicyMetrics
    riskroute: PolicyMetrics

    @property
    def survival_improvement(self) -> float:
        """Route-survival gain of risk-aware provisioning."""
        return self.riskroute.route_survival - self.shortest.route_survival

    @property
    def unserved_reduction(self) -> float:
        """Unserved-demand reduction of risk-aware provisioning."""
        return self.shortest.unserved_demand - self.riskroute.unserved_demand

    def as_dict(self) -> Dict[str, object]:
        """JSON-shaped view, as the ``scenario`` op returns it."""
        return {
            "network": self.network,
            "scenarios": self.scenarios,
            "seed": self.seed,
            "srg_groups": self.srg_groups,
            "srg_activations": self.srg_activations,
            "disaster_events": self.disaster_events,
            "shortest": self.shortest.as_dict(),
            "riskroute": self.riskroute.as_dict(),
            "survival_improvement": self.survival_improvement,
            "unserved_reduction": self.unserved_reduction,
        }


#: One drawn scenario: (initial pop ids, initial link endpoint pairs,
#: True when it came from an SRG activation).
_Scenario = Tuple[Tuple[str, ...], Tuple[Tuple[str, str], ...], bool]


def _draw_scenarios(
    simulator: CascadeSimulator,
    srgs: SrgIndex,
    config: ScenarioConfig,
) -> List[_Scenario]:
    """Materialise every scenario's initial failure set up front.

    All randomness is consumed here, in a fixed order from one
    generator, so the execution phase is pure.
    """
    rng = np.random.default_rng(config.seed)
    n = config.scenarios
    srg_draws = rng.random(n)
    if len(srgs):
        weights = srgs.activation_weights()
        srg_picks = rng.choice(len(srgs), size=n, p=weights)
    else:
        srg_picks = np.zeros(n, dtype=np.int64)
    disasters = sample_disasters(n, rng)

    scenarios: List[_Scenario] = []
    for i in range(n):
        if len(srgs) and srg_draws[i] < config.srg_fraction:
            group = srgs.groups[int(srg_picks[i])]
            scenarios.append((group.pops, group.links, True))
        else:
            mask = damage_mask(simulator.latlon, disasters[i])
            pops = tuple(
                pid for pid, hit in zip(simulator.pop_ids, mask) if hit
            )
            scenarios.append((pops, (), False))
    return scenarios


def _aggregate(
    policy: str, results: Sequence[CascadeResult]
) -> PolicyMetrics:
    n = len(results)
    hits = sum(r.route_hits for r in results)
    trials = sum(r.route_trials for r in results)
    depth_hist: Dict[int, int] = {}
    for r in results:
        depth_hist[r.depth] = depth_hist.get(r.depth, 0) + 1
    partitions = sum(1 for r in results if r.partitioned)
    return PolicyMetrics(
        policy=policy,
        scenarios=n,
        route_survival=hits / trials if trials else 1.0,
        demand_survival=float(np.mean([r.served_demand for r in results])),
        unserved_demand=float(np.mean([r.unserved_demand for r in results])),
        mean_cascade_depth=float(np.mean([r.depth for r in results])),
        max_cascade_depth=max(r.depth for r in results),
        depth_distribution=depth_hist,
        overload_trips=sum(r.overload_trips for r in results),
        partitions=partitions,
        mttf_events=(n / partitions) if partitions else None,
    )


def run_monte_carlo(
    network: Network,
    model: Optional[RiskModel] = None,
    config: Optional[ScenarioConfig] = None,
    *,
    engine: Optional[RoutingEngine] = None,
) -> ScenarioReport:
    """Run one seeded Monte Carlo and compare provisioning policies.

    Every drawn scenario is played to cascade fixpoint twice — once
    over the shortest-path baseline loads and routes, once over the
    risk-aware ones — so the two policies face the same exogenous
    damage in their own worlds.  ``engine`` is handed to the
    :class:`CascadeSimulator`.

    Raises:
        ValueError: for invalid configuration.
    """
    config = config or ScenarioConfig()
    model = model or RiskModel.for_network(network)
    simulator = CascadeSimulator(
        network, model, sample_pairs=config.sample_pairs, engine=engine
    )
    srgs = infer_srgs(
        network, model, corridor_miles=config.corridor_miles
    )
    scenarios = _draw_scenarios(simulator, srgs, config)
    srg_activations = sum(1 for _, _, from_srg in scenarios if from_srg)

    per_scenario: List[Dict[str, CascadeResult]] = [
        {
            policy: simulator.run(pops, links, policy, config.cascade)
            for policy in POLICIES
        }
        for pops, links, _ in scenarios
    ]

    by_policy = {
        policy: _aggregate(
            policy, [row[policy] for row in per_scenario]
        )
        for policy in POLICIES
    }
    return ScenarioReport(
        network=network.name,
        scenarios=config.scenarios,
        seed=config.seed,
        srg_groups=len(srgs),
        srg_activations=srg_activations,
        disaster_events=config.scenarios - srg_activations,
        shortest=by_policy["shortest"],
        riskroute=by_policy["riskroute"],
    )
