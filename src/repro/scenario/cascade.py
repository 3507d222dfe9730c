"""Round-based cascading-failure simulation over baseline traffic loads.

The paper's survival simulation (:mod:`repro.core.simulation`) asks a
static question: does a precomputed route avoid the damage footprint?
This module asks the dynamic one: what happens to the traffic the
failed elements were *carrying*?  Baseline loads come from routing the
gravity-model demand matrix (:mod:`repro.traffic.gravity`) over the
engine's batched per-source sweeps; every PoP and link gets a capacity
of ``headroom x`` its baseline load.  When an element fails, its load
sheds onto nearby survivors; survivors pushed past capacity trip in the
next round, and the rounds iterate to a fixpoint (the classic
Motter-Lai overload cascade, localised shedding instead of exact
re-routing so a 500-scenario Monte Carlo stays tractable).

Shedding is where the **defense knob** lives:

* ``redistribute=False`` — naive failover: a failed element dumps its
  whole load onto the single heaviest surviving alternate (the
  "biggest pipe" reflex), concentrating stress.
* ``redistribute=True`` — dynamic load redistribution: the load is
  split across up to ``alternates`` risk-aware alternates (lowest
  composed node risk first), proportional to each alternate's
  remaining capacity headroom, diluting stress and arresting cascades.

Degenerate case, pinned by tests: with ``headroom=None`` (unlimited
capacity) nothing ever trips, the final failure set equals the initial
one, and survival over :func:`repro.core.simulation.sampled_pair_routes`
reduces exactly to :func:`repro.core.simulation.route_survival`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.simulation import sampled_pair_routes
from ..engine import RoutingEngine
from ..risk.model import RiskModel
from ..session import RoutingSession
from ..topology.network import Network
from ..traffic.gravity import gravity_matrix

__all__ = ["CascadeConfig", "CascadeResult", "CascadeSimulator", "POLICIES"]

#: The provisioning policies a cascade can be run under.
POLICIES = ("shortest", "riskroute")

#: Hard stop on cascade rounds (a safety bound: real cascades reach
#: their fixpoint long before).
_MAX_ROUNDS = 50

#: Relative capacity floor: an element's capacity is ``headroom x
#: max(load, floor_fraction x mean load)`` so zero-load elements do not
#: trip on the first stray packet.
_LOAD_FLOOR_FRACTION = 0.05


@dataclass(frozen=True)
class CascadeConfig:
    """Tuning for one cascade run.

    Args:
        headroom: capacity multiplier over baseline load; ``None``
            means unlimited capacity (no overload trips ever — the
            static-survival degenerate case).
        redistribute: the defense knob (see module docstring).
        alternates: how many risk-aware alternates a defended shed is
            split across.
    """

    headroom: Optional[float] = 1.5
    redistribute: bool = True
    alternates: int = 3

    def __post_init__(self) -> None:
        # NaN fails both comparisons, so it is caught with the infinities.
        if self.headroom is not None and not 0 < self.headroom < math.inf:
            raise ValueError("headroom must be positive and finite (or None)")
        if self.alternates < 1:
            raise ValueError("alternates must be >= 1")


@dataclass(frozen=True)
class CascadeResult:
    """Fixpoint state of one cascade scenario under one policy.

    Attributes:
        policy: ``"shortest"`` or ``"riskroute"``.
        initial_failed_pops / initial_failed_links: the exogenous
            damage (disaster footprint or SRG activation).
        failed_pops / failed_links: the final failure sets, including
            overload trips.
        depth: overload rounds until fixpoint (0 = no secondary trips).
        overload_trips: total elements tripped by overload.
        served_demand: fraction of total pair demand still connected
            over the surviving topology.
        route_hits: surviving routes among the sampled pair routes.
        route_trials: sampled pair routes evaluated.
        partitioned: surviving PoPs no longer form one component.
    """

    policy: str
    initial_failed_pops: Tuple[str, ...]
    initial_failed_links: Tuple[Tuple[str, str], ...]
    failed_pops: Tuple[str, ...]
    failed_links: Tuple[Tuple[str, str], ...]
    depth: int
    overload_trips: int
    served_demand: float
    route_hits: int
    route_trials: int
    partitioned: bool

    @property
    def unserved_demand(self) -> float:
        """Fraction of pair demand the surviving topology cannot carry."""
        return 1.0 - self.served_demand


class CascadeSimulator:
    """Precomputed cascade state for one (network, model) binding.

    Construction is the expensive part — routing the demand matrix over
    the engine's batched sweeps for both policies, and precomputing the
    sampled survival routes — so one simulator is built per Monte Carlo
    run and :meth:`run` stays cheap enough for hundreds of scenarios.

    Demand is the network's gravity model
    (:func:`~repro.traffic.gravity.gravity_matrix`).

    Args:
        network: topology under study.
        model: risk model driving the risk-aware policy and alternates.
        sample_pairs: size of the survival route sample (matches
            :func:`repro.core.simulation.route_survival`).
        engine: an engine over ``network`` to route on (the daemon
            passes its session's, so a request reuses its warm
            sweeps); built when omitted.
    """

    def __init__(
        self,
        network: Network,
        model: RiskModel,
        *,
        sample_pairs: int = 60,
        engine: Optional[RoutingEngine] = None,
    ) -> None:
        self.network = network
        self.model = model
        session = RoutingSession(network, model, engine=engine)
        self.pop_ids: List[str] = network.pop_ids()
        self._pop_index = {pid: i for i, pid in enumerate(self.pop_ids)}
        self.latlon = network.latlon()
        self.node_risk = np.array(
            [model.node_risk(pid) for pid in self.pop_ids], dtype=np.float64
        )

        links = network.links()
        self.link_pairs: List[Tuple[str, str]] = [l.endpoints for l in links]
        self._link_index = {
            pair: idx for idx, pair in enumerate(self.link_pairs)
        }
        self._link_u = np.array(
            [self._pop_index[a] for a, _ in self.link_pairs], dtype=np.int64
        )
        self._link_v = np.array(
            [self._pop_index[b] for _, b in self.link_pairs], dtype=np.int64
        )
        # Per-PoP incidence: (neighbor index, link index) pairs.
        self._incident: List[List[Tuple[int, int]]] = [
            [] for _ in self.pop_ids
        ]
        for idx, (a, b) in enumerate(self.link_pairs):
            u, v = self._pop_index[a], self._pop_index[b]
            self._incident[u].append((v, idx))
            self._incident[v].append((u, idx))

        # gravity_matrix orders its PoPs as network.pops() does.
        self.demand = gravity_matrix(network).as_array()
        self._total_demand = float(np.triu(self.demand, 1).sum())

        # Baseline loads: gravity demand carried over each policy's
        # batched per-source sweeps (upper-triangle pairs, routed from
        # the lower-indexed endpoint for determinism).
        self.node_load: Dict[str, "np.ndarray"] = {}
        self.link_load: Dict[str, "np.ndarray"] = {}
        for policy in POLICIES:
            self.node_load[policy], self.link_load[policy] = (
                self._baseline_loads(session, policy)
            )

        # Survival route sample, shared with route_survival.
        self._routes: Dict[str, List[Tuple["np.ndarray", "np.ndarray"]]] = {
            "shortest": [],
            "riskroute": [],
        }
        for shortest, risky in sampled_pair_routes(
            network, model, sample_pairs, engine=session.engine
        ):
            self._routes["shortest"].append(self._route_arrays(shortest.path))
            self._routes["riskroute"].append(self._route_arrays(risky.path))

    # -- construction helpers ---------------------------------------------

    def _baseline_loads(
        self, session: RoutingSession, policy: str
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        from ..core.strategy import SweepStrategy

        n = len(self.pop_ids)
        node_load = np.zeros(n, dtype=np.float64)
        link_load = np.zeros(len(self.link_pairs), dtype=np.float64)
        for i, source in enumerate(self.pop_ids):
            if policy == "shortest":
                routes = session.shortest_from(source)
            else:
                routes = session.routes_from(
                    source, SweepStrategy.PER_SOURCE
                )
            for j in range(i + 1, n):
                route = routes.get(self.pop_ids[j])
                if route is None:
                    continue
                weight = self.demand[i, j]
                if weight <= 0:
                    continue
                path = route.path
                for pop_id in path:
                    node_load[self._pop_index[pop_id]] += weight
                for a, b in zip(path, path[1:]):
                    link_load[
                        self._link_index[tuple(sorted((a, b)))]
                    ] += weight
        return node_load, link_load

    def _route_arrays(
        self, path: Sequence[str]
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        pop_idx = np.array(
            [self._pop_index[p] for p in path], dtype=np.int64
        )
        link_idx = np.array(
            [
                self._link_index[tuple(sorted((a, b)))]
                for a, b in zip(path, path[1:])
            ],
            dtype=np.int64,
        )
        return pop_idx, link_idx

    def pop_indices(self, pop_ids: Iterable[str]) -> List[int]:
        """Dense indices of the given PoP ids (unknown ids rejected)."""
        return [self._pop_index[pid] for pid in pop_ids]

    def link_indices(
        self, pairs: Iterable[Tuple[str, str]]
    ) -> List[int]:
        """Dense indices of the given canonical endpoint pairs."""
        return [self._link_index[tuple(sorted(pair))] for pair in pairs]

    # -- the cascade -------------------------------------------------------

    def run(
        self,
        initial_pops: Iterable[str] = (),
        initial_links: Iterable[Tuple[str, str]] = (),
        policy: str = "riskroute",
        config: Optional[CascadeConfig] = None,
    ) -> CascadeResult:
        """Run one scenario to fixpoint under one provisioning policy.

        Raises:
            ValueError: for an unknown policy.
            KeyError: for initial elements outside the network.
        """
        if policy not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; expected one of {POLICIES}"
            )
        config = config or CascadeConfig()
        n = len(self.pop_ids)
        m = len(self.link_pairs)
        alive_pop = np.ones(n, dtype=bool)
        alive_link = np.ones(m, dtype=bool)
        load = self.node_load[policy].copy()
        lload = self.link_load[policy].copy()
        if config.headroom is None:
            cap_pop = cap_link = None
        else:
            pop_floor = _LOAD_FLOOR_FRACTION * (load.mean() if n else 0.0)
            link_floor = _LOAD_FLOOR_FRACTION * (lload.mean() if m else 0.0)
            cap_pop = config.headroom * np.maximum(load, pop_floor)
            cap_link = config.headroom * np.maximum(lload, link_floor)

        init_pops = sorted(set(self.pop_indices(initial_pops)))
        init_links = sorted(set(self.link_indices(initial_links)))
        base_pop = self.node_load[policy]
        base_link = self.link_load[policy]
        self._fail(
            init_pops, init_links, alive_pop, alive_link,
            load, lload, base_pop, base_link, cap_pop, cap_link, config,
        )
        depth = 0
        trips = 0
        while depth < _MAX_ROUNDS:
            over_pops, over_links = self._overloads(
                alive_pop, alive_link, load, lload, cap_pop, cap_link
            )
            if not over_pops and not over_links:
                break
            depth += 1
            trips += len(over_pops) + len(over_links)
            self._fail(
                over_pops, over_links, alive_pop, alive_link,
                load, lload, base_pop, base_link, cap_pop, cap_link,
                config,
            )

        served, partitioned = self._served_demand(alive_pop, alive_link)
        hits, trials = self._route_survival(policy, alive_pop, alive_link)
        return CascadeResult(
            policy=policy,
            initial_failed_pops=tuple(
                self.pop_ids[i] for i in init_pops
            ),
            initial_failed_links=tuple(
                self.link_pairs[i] for i in init_links
            ),
            failed_pops=tuple(
                self.pop_ids[i] for i in np.flatnonzero(~alive_pop)
            ),
            failed_links=tuple(
                self.link_pairs[i] for i in np.flatnonzero(~alive_link)
            ),
            depth=depth,
            overload_trips=trips,
            served_demand=served,
            route_hits=hits,
            route_trials=trials,
            partitioned=partitioned,
        )

    # -- cascade internals -------------------------------------------------

    def _fail(
        self, pop_indices, link_indices, alive_pop, alive_link,
        load, lload, base_pop, base_link, cap_pop, cap_link, config,
    ) -> None:
        """Mark elements failed and shed their loads onto survivors.

        PoP sheds land on surviving neighbor PoPs (and spread over each
        receiver's surviving links, pro-rata to baseline link load —
        the extra transit has to arrive over *some* fiber).  Link sheds
        land on surviving links incident to either endpoint — the local
        spans that pick up the rerouted traffic.
        """
        pop_indices = [i for i in pop_indices if alive_pop[i]]
        link_set = set(link_indices)
        for p in pop_indices:
            alive_pop[p] = False
            link_set.update(idx for _, idx in self._incident[p])
        link_indices = sorted(idx for idx in link_set if alive_link[idx])
        for idx in link_indices:
            alive_link[idx] = False

        for p in pop_indices:
            shed = load[p]
            load[p] = 0.0
            if shed <= 0:
                continue
            neighbors = sorted(
                {v for v, _ in self._incident[p] if alive_pop[v]}
            )
            if not neighbors:
                continue  # stranded load; reflected in served demand
            for v, share in self._shares(
                neighbors, shed, self.node_risk, load, base_pop,
                cap_pop, config,
            ):
                load[v] += share
                spans = [
                    idx for _, idx in self._incident[v] if alive_link[idx]
                ]
                self._spread_over_links(spans, share, lload)

        link_risk = np.maximum(
            self.node_risk[self._link_u], self.node_risk[self._link_v]
        )
        for l in link_indices:
            shed = lload[l]
            lload[l] = 0.0
            if shed <= 0:
                continue
            u, v = int(self._link_u[l]), int(self._link_v[l])
            spans = sorted(
                {
                    idx
                    for endpoint in (u, v)
                    for _, idx in self._incident[endpoint]
                    if alive_link[idx]
                }
            )
            if not spans:
                continue
            for idx, share in self._shares(
                spans, shed, link_risk, lload, base_link, cap_link, config,
            ):
                lload[idx] += share

    def _shares(
        self, candidates, shed, risk, current, baseline, cap, config,
    ):
        """Deterministic (receiver, share) split of one shed load."""
        if not config.redistribute:
            # Naive failover: everything onto the single heaviest
            # alternate by baseline load — the "biggest pipe" reflex
            # (lowest index breaks ties), which concentrates stress.
            ranked = max(candidates, key=lambda c: (baseline[c], -c))
            return [(ranked, shed)]
        chosen = sorted(candidates, key=lambda c: (risk[c], c))
        chosen = chosen[: config.alternates]
        if cap is None:
            share = shed / len(chosen)
            return [(c, share) for c in chosen]
        headroom = np.array(
            [max(cap[c] - current[c], 0.0) for c in chosen]
        )
        total = headroom.sum()
        if total <= 0:
            share = shed / len(chosen)
            return [(c, share) for c in chosen]
        return [
            (c, shed * (h / total)) for c, h in zip(chosen, headroom)
        ]

    @staticmethod
    def _spread_over_links(spans, share, lload) -> None:
        """Spread a received shed over the receiver's surviving links."""
        if not spans:
            return
        weights = np.array([lload[idx] for idx in spans])
        total = weights.sum()
        if total <= 0:
            for idx in spans:
                lload[idx] += share / len(spans)
            return
        for idx, w in zip(spans, weights):
            lload[idx] += share * (w / total)

    def _overloads(
        self, alive_pop, alive_link, load, lload, cap_pop, cap_link
    ) -> Tuple[List[int], List[int]]:
        if cap_pop is None:
            return [], []
        over_pops = np.flatnonzero(alive_pop & (load > cap_pop))
        over_links = np.flatnonzero(alive_link & (lload > cap_link))
        return [int(i) for i in over_pops], [int(i) for i in over_links]

    # -- metrics -----------------------------------------------------------

    def _served_demand(
        self, alive_pop, alive_link
    ) -> Tuple[float, bool]:
        """Demand fraction still connected, and whether we partitioned."""
        n = len(self.pop_ids)
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for idx in np.flatnonzero(alive_link):
            u, v = int(self._link_u[idx]), int(self._link_v[idx])
            if alive_pop[u] and alive_pop[v]:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv

        alive = np.flatnonzero(alive_pop)
        if len(alive) == 0:
            return 0.0, True
        roots: Dict[int, List[int]] = {}
        for i in alive:
            roots.setdefault(find(int(i)), []).append(int(i))
        served = 0.0
        for members in roots.values():
            if len(members) < 2:
                continue
            block = self.demand[np.ix_(members, members)]
            served += float(np.triu(block, 1).sum())
        if self._total_demand <= 0:
            return 1.0, len(roots) != 1
        return served / self._total_demand, len(roots) != 1

    def _route_survival(
        self, policy, alive_pop, alive_link
    ) -> Tuple[int, int]:
        hits = 0
        routes = self._routes[policy]
        for pop_idx, link_idx in routes:
            if alive_pop[pop_idx].all() and (
                len(link_idx) == 0 or alive_link[link_idx].all()
            ):
                hits += 1
        return hits, len(routes)
