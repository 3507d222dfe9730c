"""The batched, cached RoutingEngine.

One engine owns one topology, frozen into CSR arrays, and serves every
risk-weighted query against it: single pairs, per-source sweeps,
all-pairs ratio aggregates and provisioning component sums.  Work that
many queries share reduces to memoized single-source sweeps (see
:mod:`repro.engine.sweep`), so ratio sweeps, candidate scoring and the
geographic side of pair queries share work instead of recomputing it.
An ``EXACT`` single pair is its own search, since its impact
``c_s + c_t`` is shared with no other query: the engine memoizes its
answer, not the search.

Caching contract (see :mod:`repro.engine.cache`):

* sweeps are keyed by ``(alpha, source)``;
* ``EXACT`` risk routes and ``route_pair``'s ``PairRoutes`` are
  memoized per ``(source, target)`` in a route LRU sized like the
  sweep cache; a cold one is read off the cached ``(alpha, source)``
  sweep when there is one, and otherwise searched for its target alone
  and never cached as a sweep;
* a model swap with the same risk field (fingerprint match) keeps every
  cache; a changed field (a new forecast advisory, an event ingest,
  different gammas) keeps the ``alpha == 0`` geographic sweeps and
  drops every other sweep, every memoized route and every memoized
  result;
* answers do not depend on cache history: every aggregate iterates
  targets in node-index order, every sweep runs the one
  :func:`~repro.engine.sweep.csr_sweep` loop, alone or in a prefetch,
  and a search stopped at its target settles what the full sweep would
  have up to it — except under A*, whose settle order may pick a
  different, equally short path between exactly tied optima.

On graphs of at least ``TARGETED_MIN_NODES`` nodes a single-pair
search runs :func:`~repro.engine.sweep.csr_sweep` as A* under
``LANDMARK_COUNT`` landmark bounds (DESIGN §15).

Whoever owns a topology owns its engine and passes it to whatever
should share its warm caches: a :class:`~repro.session.RoutingSession`
builds one and keeps it, and a provisioning analysis is handed its
session's engine or builds one per working graph.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..core.bitrisk import PathMetrics
from ..core.strategy import (
    SweepStrategy,
    auto_strategy,
    resolve_strategy,
)
from ..graph.core import Graph, NodeNotFoundError
from ..graph.shortest_path import NoPathError
from ..risk.model import RiskModel
from .arrays import CsrGraph
from .cache import EngineConfig, LruCache
from .components import sweep_component_arrays
from .fingerprint import risk_fingerprint
from .sweep import SweepResult, csr_sweep

__all__ = ["RoutingEngine"]

_INF = float("inf")

#: The A* gate of the module docstring.
TARGETED_MIN_NODES = 1024
LANDMARK_COUNT = 8


class RoutingEngine:
    """Batched risk-weighted routing over one frozen topology.

    Args:
        graph: the distance-weighted topology (snapshotted into CSR
            arrays at construction — later graph mutations are not seen;
            build a new engine, as a session does when its graph's
            ``version`` moves).
        model: the risk model; must cover every graph node (fail fast).
        config: cache sizes; defaults to :class:`EngineConfig`'s.
    """

    def __init__(
        self,
        graph: Graph[str],
        model: RiskModel,
        config: Optional[EngineConfig] = None,
    ) -> None:
        self._init_state(CsrGraph(graph), config)
        self._bind_model(model, risk_fingerprint(model, self._csr.node_ids))

    def _init_state(
        self, csr: CsrGraph, config: Optional[EngineConfig]
    ) -> None:
        """Everything but the model binding, with empty caches."""
        self._config = config or EngineConfig()
        self._csr = csr
        self._sweeps = LruCache(self._config.sweep_cache_size)
        self._routes = LruCache(self._config.sweep_cache_size)
        self._results = LruCache(self._config.result_cache_size)
        self.risk_fingerprint = ""
        self._latlon: Optional[np.ndarray] = None
        self._landmarks = None
        self._targeted_queries = 0
        self._targeted_settled = 0

    @classmethod
    def from_csr(
        cls,
        csr: CsrGraph,
        model: RiskModel,
        config: Optional[EngineConfig] = None,
    ) -> "RoutingEngine":
        """Build an engine over pre-flattened CSR arrays.

        The shard-process constructor (see :mod:`repro.engine.shm`): a
        child that mapped the parent's CSR segments rebuilds the engine
        without flattening a :class:`~repro.graph.core.Graph`, binds
        ``model`` as any engine does, and hands the engine to its
        session's constructor.
        """
        self = cls.__new__(cls)
        self._init_state(csr, config)
        self._bind_model(model, risk_fingerprint(model, csr.node_ids))
        return self

    # -- model binding and invalidation -----------------------------------

    def _bind_model(self, model: RiskModel, fingerprint: str) -> None:
        """Bind ``model``, whose risk field hashes to ``fingerprint``."""
        node_ids = self._csr.node_ids
        self.model = model
        self._risk = [model.node_risk(node) for node in node_ids]
        self._entry_risk = self._csr.neighbor_values(self._risk)
        self._shares = [model.share(node) for node in node_ids]
        self._mean_share = (
            sum(self._shares) / len(self._shares) if self._shares else 0.0
        )
        self.risk_fingerprint = fingerprint

    def update_model(self, model: RiskModel) -> bool:
        """Swap in a model, invalidating caches only when it matters.

        A model with an unchanged risk field (same per-node entry risk
        and shares — e.g. a fresh but equivalent ``RiskModel`` object)
        keeps every cache warm.  A changed field keeps the geographic
        ``alpha == 0`` sweeps, which risk can never affect, and drops
        every other sweep, every memoized route and every memoized
        result.

        Returns True when caches were invalidated.
        """
        if model is self.model:
            return False
        fingerprint = risk_fingerprint(model, self._csr.node_ids)
        if fingerprint == self.risk_fingerprint:
            self.model = model
            return False
        self._bind_model(model, fingerprint)
        self._sweeps.retain(lambda key: key[0] == 0.0)
        self._routes.clear()
        self._results.clear()
        return True

    @property
    def config(self) -> EngineConfig:
        """The active tuning."""
        return self._config

    @property
    def node_ids(self) -> List[str]:
        """Topology node names in CSR row order."""
        return list(self._csr.node_ids)

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return self._csr.node_count

    def stats(self) -> dict:
        """Cache counters plus current occupancy (for tests/logging)."""
        return {
            "sweeps": self._sweeps.stats.as_dict(),
            "routes": self._routes.stats.as_dict(),
            "results": self._results.stats.as_dict(),
            "cached_sweeps": len(self._sweeps),
            "cached_routes": len(self._routes),
            "cached_results": len(self._results),
            "targeted": self.targeted_stats(),
        }

    @property
    def full_sweeps(self) -> int:
        """Full sweeps this engine has run: every sweep-cache miss but
        the target-stopped searches :meth:`targeted_stats` counts."""
        return self._sweeps.stats.misses - self._targeted_queries

    # -- provisioning hooks ------------------------------------------------
    #
    # Provisioning scores candidate links off this engine's sweeps: these
    # hooks expose a node's CSR row and the per-source impact its
    # expected-impact sweep runs under, without reaching into private
    # state.

    def index_of(self, node: str) -> int:
        """CSR row index of a node.

        Raises:
            NodeNotFoundError: for a name outside the topology.
        """
        return self._idx(node)

    def expected_impact(self, source: str) -> float:
        """The expected impact ``alpha_i = c_i + mean(c)`` — the sweep
        impact of a ``PER_SOURCE`` all-targets query."""
        return self._shares[self._idx(source)] + self._mean_share

    # -- sweep layer -------------------------------------------------------

    def _idx(self, node: str) -> int:
        try:
            return self._csr.index[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def _arrays(self) -> tuple:
        return (
            self._csr.indptr_list,
            self._csr.indices_list,
            self._csr.weights_list,
            self._entry_risk,
        )

    # -- coordinates and landmark bounds -----------------------------------

    def set_coordinates(self, latlon) -> None:
        """Attach per-node ``(lat, lon)`` degrees, in CSR row order.

        Coordinates enable the great-circle bound family for targeted
        queries (:mod:`repro.engine.landmarks`); they are topology
        state, so they survive every model swap.  Passing coordinates
        after a landmark index was already built rebuilds it lazily.
        """
        if latlon is None:
            return
        arr = np.asarray(latlon, dtype=np.float64)
        if arr.shape != (self._csr.node_count, 2):
            raise ValueError(
                f"latlon must be ({self._csr.node_count}, 2), "
                f"got {arr.shape}"
            )
        if self._latlon is not None and np.array_equal(self._latlon, arr):
            return
        self._latlon = arr
        self._landmarks = None

    @property
    def coordinates(self) -> Optional[np.ndarray]:
        """Per-node ``(lat, lon)`` degrees, when attached."""
        return self._latlon

    def landmark_index(self):
        """The lazily built per-topology landmark bounds
        (:class:`repro.engine.landmarks.LandmarkIndex`).

        Risk-independent (``alpha == 0`` distances only), so the index
        survives every forecast swap; it is rebuilt only when
        coordinates change.
        """
        if self._landmarks is None:
            from .landmarks import LandmarkIndex

            self._landmarks = LandmarkIndex.build(
                *self._arrays()[:3], k=LANDMARK_COUNT, latlon=self._latlon
            )
        return self._landmarks

    def targeted_stats(self) -> dict:
        """Settle counters for single-pair searches stopped at their
        target (landmark-pruned from ``TARGETED_MIN_NODES`` nodes).

        ``settled / (queries * node_count)`` is the fraction of the
        graph such a search actually visited.
        """
        return {
            "queries": self._targeted_queries,
            "settled": self._targeted_settled,
            "node_count": self._csr.node_count,
        }

    def _sweep_idx(self, source: int, alpha: float) -> SweepResult:
        cached = self._sweeps.get((alpha, source))
        if cached is not None:
            return cached
        result = csr_sweep(*self._arrays(), source, alpha)
        self._sweeps.put((alpha, source), result)
        return result

    def sweep(self, source: str, alpha: float) -> SweepResult:
        """The (cached) single-source sweep at one impact value."""
        return self._sweep_idx(self._idx(source), alpha)

    def prefetch(self, tasks: Iterable[Tuple[int, float]]) -> int:
        """Compute the missing sweeps, in task order.

        ``tasks`` are ``(source index, alpha)`` pairs.  Returns the
        number of sweeps actually computed.
        """
        arrays = self._arrays()
        computed = 0
        for source, alpha in tasks:
            if not self._sweeps.peek((alpha, source)):
                self._sweeps.put(
                    (alpha, source), csr_sweep(*arrays, source, alpha)
                )
                computed += 1
        # ``peek`` leaves the stats alone: count each sweep computed
        # here as the miss it is.
        self._sweeps.stats.misses += computed
        return computed

    def prefetch_per_source(
        self, sources: Optional[Sequence[str]] = None
    ) -> int:
        """Ensure every source's expected-impact sweep is cached.

        The batched warm-up for per-source all-pairs work (component
        matrices, lower bounds).
        """
        names = sources if sources is not None else self._csr.node_ids
        tasks = []
        for name in names:
            s = self._idx(name)
            tasks.append((s, self._shares[s] + self._mean_share))
        return self.prefetch(tasks)

    # -- component extraction (provisioning reuse hooks) -------------------

    def component_arrays(self, source: str, alpha: float):
        """Per-target (mileage, risk, reached) arrays of one sweep.

        The O(n) parent-tree extraction of
        :func:`repro.engine.components.sweep_component_arrays`, memoized
        on the result cache (and therefore dropped whenever the risk
        field changes).  Returned arrays are shared — treat them as
        read-only.
        """
        s = self._idx(source)
        key = ("components", s, alpha)
        cached = self._results.get(key)
        if cached is not None:
            return cached
        result = sweep_component_arrays(
            self._sweep_idx(s, alpha), self._csr, self._risk
        )
        self._results.put(key, result)
        return result

    def component_table(self, source: str, alphas):
        """Exact per-alpha component vectors from ``source`` over a
        sorted, distinct alpha vector — the parametric bisection of
        :func:`repro.engine.components.parametric_component_table`,
        running over this engine's cached sweeps."""
        from .components import parametric_component_table

        return parametric_component_table(self, source, alphas)

    # -- route assembly ----------------------------------------------------

    def _route(self, sweep: SweepResult, target: int):
        """Materialise one RouteResult from a settled sweep."""
        return self._route_from_path(sweep.path_to(target))

    def _path_sums(self, path_idx: Sequence[int]) -> Tuple[float, float]:
        """Mileage and risk sums of one node-index path.

        Accumulates in forward path order — the exact float-summation
        order of :func:`repro.core.bitrisk.path_metrics`.
        """
        edge_weight = self._csr.edge_weight
        node_risk = self._risk
        distance = 0.0
        risk = 0.0
        prev = path_idx[0]
        for curr in path_idx[1:]:
            distance += edge_weight(prev, curr)
            risk += node_risk[curr]
            prev = curr
        return distance, risk

    def _route_from_path(self, path_idx: Sequence[int]):
        """Score one node-index path into a RouteResult, under the
        pair's true impact regardless of the alpha the path was found
        at."""
        from ..core.riskroute import RouteResult

        names = self._csr.node_ids
        distance, risk = self._path_sums(path_idx)
        alpha = self._shares[path_idx[0]] + self._shares[path_idx[-1]]
        path = tuple(names[i] for i in path_idx)
        metrics = PathMetrics(path, distance, risk, alpha)
        return RouteResult(path[0], path[-1], metrics)

    def _targeted_route(self, s: int, t: int, alpha: float):
        """One pair's route at ``alpha``, searched for that pair alone.

        Reads the full ``(alpha, s)`` sweep when it is cached.
        Otherwise runs :func:`~repro.engine.sweep.csr_sweep` stopped
        when ``t`` settles, under landmark bounds (A*) only on graphs of
        at least ``TARGETED_MIN_NODES`` nodes.  Below that gate the
        search is the full sweep's own loop cut short, so path and costs
        are the full sweep's bit for bit; A* settles ``t`` at the same
        distance, its path identical up to exactly tied optima.  The
        search is not cached as a sweep: callers memoize the route.
        """
        sweep = self._sweeps.get((alpha, s))
        if sweep is None:
            bounds = None
            if self._csr.node_count >= TARGETED_MIN_NODES:
                bounds = self.landmark_index().lower_bounds(t).tolist()
            sweep = csr_sweep(
                *self._arrays(), s, alpha, target=t, bounds=bounds
            )
            self._targeted_queries += 1
            self._targeted_settled += sweep.settled
        if sweep.dist[t] == _INF:
            names = self._csr.node_ids
            raise NoPathError(names[s], names[t])
        return self._route(sweep, t)

    def _memo_route(self, key: tuple, compute):
        """``compute()``, memoized under ``key`` in the route LRU."""
        route = self._routes.get(key)
        if route is None:
            route = compute()
            self._routes.put(key, route)
        return route

    def _exact_route(self, s: int, t: int):
        """The Equation 3 optimum for one pair, under ``c_s + c_t``."""
        return self._targeted_route(s, t, self._shares[s] + self._shares[t])

    # -- single-pair queries -----------------------------------------------

    def shortest_path(self, source: str, target: str):
        """Pure geographic shortest path (the paper's baseline).

        Read off the source's cached ``alpha == 0`` sweep, which every
        target shares; on graphs of at least ``TARGETED_MIN_NODES``
        nodes a cold one is an A* search, memoized per pair.

        Raises:
            NoPathError: when disconnected.
        """
        s, t = self._idx(source), self._idx(target)
        if self._csr.node_count >= TARGETED_MIN_NODES:
            return self._memo_route(
                ("shortest", s, t), lambda: self._targeted_route(s, t, 0.0)
            )
        sweep = self._sweep_idx(s, 0.0)
        if sweep.dist[t] == _INF:
            raise NoPathError(source, target)
        return self._route(sweep, t)

    def risk_route(
        self,
        source: str,
        target: str,
        strategy: SweepStrategy = SweepStrategy.EXACT,
    ):
        """The RiskRoute path for one pair.

        ``EXACT`` is the true Equation 3 optimum, memoized per pair: a
        cold one is read off the cached ``(c_s + c_t, source)`` sweep
        if there is one, and otherwise searched for its target alone —
        landmark-pruned A* on continental-scale topologies
        (``TARGETED_MIN_NODES``), whose distance is the same bit for bit
        and whose path is identical up to exactly tied optima.
        ``PER_SOURCE`` reads the target off the source's cached
        expected-impact sweep — the route :meth:`risk_routes_from`
        reports for it — re-scored exactly.

        Raises:
            NodeNotFoundError: for an endpoint outside the topology.
            NoPathError: when disconnected.
        """
        s, t = self._idx(source), self._idx(target)
        if strategy is not SweepStrategy.PER_SOURCE:
            return self._memo_route(
                ("route", s, t), lambda: self._exact_route(s, t)
            )
        sweep = self._sweep_idx(s, self._shares[s] + self._mean_share)
        if sweep.dist[t] == _INF:
            raise NoPathError(source, target)
        return self._route(sweep, t)

    def route_pair(self, source: str, target: str):
        """Both routes for a pair, ready for ratio evaluation; memoized
        per pair."""
        from ..core.riskroute import PairRoutes

        s, t = self._idx(source), self._idx(target)
        return self._memo_route(
            ("pair", s, t),
            lambda: PairRoutes(
                shortest=self.shortest_path(source, target),
                riskroute=self._exact_route(s, t),
            ),
        )

    # -- per-source sweeps -------------------------------------------------

    def shortest_routes_from(self, source: str) -> Dict[str, object]:
        """Shortest paths from ``source`` to every reachable node, in
        node order."""
        s = self._idx(source)
        sweep = self._sweep_idx(s, 0.0)
        names = self._csr.node_ids
        return {
            names[t]: self._route(sweep, t)
            for t in range(self._csr.node_count)
            if t != s and sweep.dist[t] != _INF
        }

    def _risk_sweeps(
        self,
        s: int,
        strategy: SweepStrategy,
        target_mask: Optional[np.ndarray] = None,
    ) -> Iterator[Tuple[int, SweepResult]]:
        """``(target, risk sweep)`` for every target ``s`` reaches, in
        node-index order.

        ``PER_SOURCE`` serves every target from one sweep under the
        expected impact; ``EXACT`` from one sweep per target under the
        true pair impact.  ``target_mask`` (per node index) filters the
        targets.
        """
        shares = self._shares
        per_source = None
        if strategy is SweepStrategy.PER_SOURCE:
            per_source = self._sweep_idx(s, shares[s] + self._mean_share)
        for t in range(self._csr.node_count):
            if t == s or (target_mask is not None and not target_mask[t]):
                continue
            sweep = per_source
            if sweep is None:
                sweep = self._sweep_idx(s, shares[s] + shares[t])
            if sweep.dist[t] != _INF:
                yield t, sweep

    def risk_routes_from(
        self, source: str, strategy: SweepStrategy = SweepStrategy.EXACT
    ) -> Dict[str, object]:
        """RiskRoute paths from ``source`` to every reachable node, in
        node order.

        ``EXACT`` runs one (cached) search per target under the true
        pair impact; ``PER_SOURCE`` runs a single search under the
        expected impact, with each path re-scored exactly.
        """
        names = self._csr.node_ids
        return {
            names[t]: self._route(sweep, t)
            for t, sweep in self._risk_sweeps(self._idx(source), strategy)
        }

    # -- batched aggregates ------------------------------------------------

    def _resolve_population(
        self,
        sources: Optional[Sequence[str]],
        targets: Optional[Sequence[str]],
    ) -> Tuple[List[int], np.ndarray]:
        """Source indices, each once in first-occurrence order, and the
        target set as a node mask: a repeated source or target counts
        its pairs once.

        Raises:
            NodeNotFoundError: for a source or target outside the
                topology.
        """
        n = self._csr.node_count
        if sources is None:
            source_idx = list(range(n))
        else:
            source_idx = list(dict.fromkeys(map(self._idx, sources)))
        if targets is None:
            target_mask = np.ones(n, dtype=bool)
        else:
            target_mask = np.zeros(n, dtype=bool)
            target_mask[[self._idx(name) for name in targets]] = True
        return source_idx, target_mask

    def _prefetch_population(
        self,
        source_idx: Sequence[int],
        target_mask: np.ndarray,
        strategy: SweepStrategy,
    ) -> None:
        shares = self._shares
        targets = np.flatnonzero(target_mask).tolist()
        tasks: List[Tuple[int, float]] = []
        for s in source_idx:
            tasks.append((s, 0.0))
            if strategy is SweepStrategy.PER_SOURCE:
                tasks.append((s, shares[s] + self._mean_share))
            else:
                tasks.extend(
                    (s, shares[s] + shares[t]) for t in targets if t != s
                )
        self.prefetch(tasks)

    def _risk_rows(
        self,
        source_idx: Sequence[int],
        target_mask: np.ndarray,
        strategy: SweepStrategy,
    ) -> Iterator[tuple]:
        """Per source, in the given order: ``(s, t, alpha, dist, risk)``.

        ``t`` holds the targets that count — in ``target_mask``, not
        ``s``, reached by the risk sweep — in node order; ``alpha`` their
        pair impacts ``c_s + c_t``; ``dist`` and ``risk`` the mileage
        and risk sums of their RiskRoute paths.  ``PER_SOURCE`` reads
        every target off its one sweep with the O(n) parent-tree pass
        :func:`~repro.engine.components.sweep_component_arrays`;
        ``EXACT`` sums the one path to each target in that target's own
        sweep.  Both sum in the order the materialised routes do, so
        the values are bit-identical to theirs.
        """
        shares = np.asarray(self._shares)
        n = self._csr.node_count
        for s in source_idx:
            if strategy is SweepStrategy.PER_SOURCE:
                sweep = self._sweep_idx(s, self._shares[s] + self._mean_share)
                dist, risk, counted = sweep_component_arrays(
                    sweep, self._csr, self._risk
                )
                counted &= target_mask
                counted[s] = False
            else:
                dist, risk = np.zeros(n), np.zeros(n)
                counted = np.zeros(n, dtype=bool)
                for t, sweep in self._risk_sweeps(s, strategy, target_mask):
                    dist[t], risk[t] = self._path_sums(sweep.path_to(t))
                    counted[t] = True
            t = np.flatnonzero(counted)
            yield s, t, self._shares[s] + shares[t], dist[t], risk[t]

    def ratios(
        self,
        sources: Optional[Sequence[str]] = None,
        targets: Optional[Sequence[str]] = None,
        strategy=None,
    ):
        """rr/dr over a (sub)set of the topology's ordered pairs.

        The batched form of the seed's per-pair loop, building no route
        objects.  Each source's shortest and RiskRoute (mileage, risk)
        sums come off its memoized sweeps (:meth:`_risk_rows`; the
        geographic side through the same parent-tree pass).  Equation 1
        and the per-pair ratio terms are numpy expressions; a pair whose
        shortest path costs 0 counts as ratio 1.0, as in
        :class:`~repro.core.riskroute.PairRoutes`.  The terms are summed
        source by source, targets in node order, and the aggregate is
        memoized.  ``strategy=None`` picks by size
        (:func:`~repro.core.strategy.auto_strategy`: ``EXACT`` up to 60
        nodes, ``PER_SOURCE`` above).

        Raises:
            NodeNotFoundError: for a source or target outside the
                topology.
            ValueError: when no valid pair exists.
        """
        strategy = resolve_strategy(
            strategy, default=auto_strategy(self._csr.node_count)
        )
        source_idx, target_mask = self._resolve_population(sources, targets)
        key = (
            "ratios",
            tuple(source_idx),
            target_mask.tobytes(),
            strategy.value,
        )
        cached = self._results.get(key)
        if cached is not None:
            return cached
        from ..core.ratios import _aggregate, _ratio_terms

        self._prefetch_population(source_idx, target_mask, strategy)
        risk_terms: List[float] = []
        distance_terms: List[float] = []
        for s, t, alpha, dist, risk in self._risk_rows(
            source_idx, target_mask, strategy
        ):
            # Reachability does not depend on alpha: the geographic
            # sweep reaches every target the risk sweep does.
            base_dist, base_risk, _ = sweep_component_arrays(
                self._sweep_idx(s, 0.0), self._csr, self._risk
            )
            base_dist, base_risk = base_dist[t], base_risk[t]
            risk_terms += _ratio_terms(
                dist + alpha * risk, base_dist + alpha * base_risk
            )
            distance_terms += _ratio_terms(dist, base_dist)
        result = _aggregate(risk_terms, distance_terms)
        self._results.put(key, result)
        return result

