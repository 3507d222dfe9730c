"""The blessed entry point: :class:`RoutingSession`.

A session binds one topology to one risk model and answers every
RiskRoute question about the pair through the cached
:class:`~repro.engine.engine.RoutingEngine` it owns::

    from repro import RiskModel, RoutingSession, network_by_name

    session = RoutingSession(network_by_name("Teliasonera"))
    pair = session.pair("Teliasonera:Miami, FL", "Teliasonera:Seattle, WA")
    ratios = session.all_pairs()                 # Equations 5-6
    links = session.provision(k=3)               # Equation 4, greedy

Sessions accept either a :class:`~repro.topology.network.Network` (the
usual case; the model defaults to ``RiskModel.for_network``) or a bare
distance :class:`~repro.graph.core.Graph` plus an explicit model
(provisioning needs PoP coordinates, so it requires network mode).

A session owns its engine: it builds one at construction (or takes the
one it is handed, as a shard process does with its shared-memory
engine) and keeps it, rebuilding only when its graph's ``version``
shows a mutation.  Swapping the model — :meth:`update_model` /
:meth:`update_forecast`, the advisory-by-advisory loop — invalidates
exactly the sweeps the new risk field touches, and :meth:`provision`
hands the engine to the analysis so its scoring reuses the session's
sweeps.  Two sessions never share an engine, so a second session over
the same topology keeps its own warm caches.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .core.riskroute import PairRoutes, RouteResult
from .core.strategy import SweepStrategy, resolve_strategy
from .engine import EngineConfig, RoutingEngine
from .graph.core import Graph
from .risk.model import RiskModel

__all__ = ["RoutingSession"]


class RoutingSession:
    """One topology + one risk model, fronted by the cached engine.

    Args:
        network: a :class:`Network` (anything with ``distance_graph()``)
            or a distance :class:`Graph`.
        model: the risk model; defaults to ``RiskModel.for_network`` in
            network mode, required in graph mode.
        config: engine cache sizes.
        engine: an engine already built over this topology (a shard
            process passes the one it mapped from shared memory); it is
            bound to ``model``.  Built from the graph when omitted.

    Raises:
        ValueError: graph mode without an explicit model.
        KeyError: when the model does not cover every node (fail fast).
    """

    def __init__(
        self,
        network,
        model: Optional[RiskModel] = None,
        *,
        config: Optional[EngineConfig] = None,
        engine: Optional[RoutingEngine] = None,
    ) -> None:
        if hasattr(network, "distance_graph"):
            self.network = network
            self._graph: Graph[str] = network.distance_graph()
        elif isinstance(network, Graph):
            self.network = None
            self._graph = network
        else:
            raise TypeError(
                "network must be a Network (distance_graph()) or a Graph, "
                f"got {type(network).__name__}"
            )
        if model is None:
            if self.network is None:
                raise ValueError("a bare Graph session needs an explicit model")
            model = RiskModel.for_network(self.network)
        self.model = model
        self._config = config
        # Building the engine here makes a model/topology mismatch fail
        # at construction, not on the first query.
        if engine is None:
            engine = RoutingEngine(self._graph, model, config)
        self._bind(engine)

    # -- engine plumbing ---------------------------------------------------

    def _bind(self, engine: RoutingEngine) -> None:
        engine.update_model(self.model)
        if self.network is not None and engine.coordinates is None:
            # PoP coordinates enable great-circle lower bounds for
            # landmark-pruned pair queries on large topologies; a
            # network-built engine's node order is pops() order.
            engine.set_coordinates(self.network.latlon())
        self._engine = engine
        self._version = self._graph.version

    @property
    def graph(self) -> Graph[str]:
        """The distance graph under study."""
        return self._graph

    @property
    def engine(self) -> RoutingEngine:
        """The session's engine, rebuilt only if the graph was mutated
        (its ``version`` moved) since the engine was built."""
        if self._graph.version != self._version:
            self._bind(RoutingEngine(self._graph, self.model, self._config))
        return self._engine

    def stats(self) -> dict:
        """Engine cache counters for the current binding (hit/miss/
        eviction/invalidation per layer plus occupancy)."""
        return self.engine.stats()

    # -- model lifecycle ---------------------------------------------------

    def update_model(self, model: RiskModel) -> bool:
        """Swap the session's risk model.

        Returns True when the risk field actually changed (and the
        engine dropped its risk-weighted sweeps).
        """
        # Resolve the engine before rebinding: an engine rebuilt for a
        # mutated graph is bound to the old model, so the swap below is
        # the one that reports whether the field changed.
        engine = self.engine
        self.model = model
        return engine.update_model(model)

    def update_forecast(self, forecast_risk) -> bool:
        """Advance to a new forecast snapshot (e.g. the next advisory
        hour), keeping shares, history and gammas.

        Returns True when cached sweeps were invalidated.
        """
        return self.update_model(self.model.with_forecast_risk(forecast_risk))

    def update_historical(self, historical_risk) -> bool:
        """Swap in a new per-PoP ``o_h`` field (streaming event ingest),
        keeping shares, forecast and gammas.

        Returns True when cached sweeps were invalidated.
        """
        return self.update_model(
            self.model.with_historical_risk(historical_risk)
        )

    # -- single-pair queries -----------------------------------------------

    def shortest(self, source: str, target: str) -> RouteResult:
        """Pure geographic shortest path (the paper's baseline)."""
        return self.engine.shortest_path(source, target)

    def route(
        self,
        source: str,
        target: str,
        strategy: SweepStrategy = SweepStrategy.EXACT,
    ) -> RouteResult:
        """The RiskRoute path for one pair.

        ``EXACT`` is the true Equation 3 optimum; ``PER_SOURCE`` reuses
        the source's expected-impact sweep (cheaper across many targets,
        paths re-scored exactly).
        """
        return self.engine.risk_route(
            source, target, resolve_strategy(strategy)
        )

    def pair(self, source: str, target: str) -> PairRoutes:
        """Baseline and RiskRoute for one pair, ready for Eq. 5/6."""
        return self.engine.route_pair(source, target)

    # -- sweeps and aggregates ---------------------------------------------

    def routes_from(
        self,
        source: str,
        strategy: SweepStrategy = SweepStrategy.EXACT,
    ) -> Dict[str, RouteResult]:
        """RiskRoute paths from ``source`` to every reachable PoP."""
        return self.engine.risk_routes_from(source, resolve_strategy(strategy))

    def shortest_from(self, source: str) -> Dict[str, RouteResult]:
        """Shortest paths from ``source`` to every reachable PoP."""
        return self.engine.shortest_routes_from(source)

    def all_pairs(
        self,
        sources: Optional[Sequence[str]] = None,
        targets: Optional[Sequence[str]] = None,
        strategy=None,
    ):
        """rr/dr ratios over the (sub)population of ordered pairs.

        ``strategy=None`` auto-selects by size
        (:func:`~repro.core.strategy.auto_strategy`): exact per-pair
        optimization up to 60 PoPs, the per-source approximation above.
        Results are memoized on the engine until the risk field changes.
        """
        return self.engine.ratios(
            sources=sources, targets=targets, strategy=strategy
        )

    # -- provisioning ------------------------------------------------------

    def provision(self, k: int = 1, top: Optional[int] = None) -> List:
        """Equation 4 link recommendations for the session's network.

        ``k == 1`` ranks the candidate set and returns the ``top``
        recommendations (all by default); ``k > 1`` runs the greedy
        k-link extension (Figure 10) — incremental matrix updates per
        committed link, one recommendation per added link.

        Raises:
            ValueError: in graph mode (candidate generation needs PoP
                coordinates), or for ``k`` or ``top`` below 1 (at any
                ``k``).
        """
        if self.network is None:
            raise ValueError(
                "provisioning needs a Network session (PoP coordinates)"
            )
        if k < 1:
            raise ValueError("k must be >= 1")
        if top is not None and top < 1:
            raise ValueError("top must be >= 1")
        from .core.provisioning import ProvisioningAnalyzer

        analyzer = ProvisioningAnalyzer(
            self.network, self.model, config=self._config, engine=self.engine
        )
        if k == 1:
            return analyzer.rank_candidates(top=top)
        return analyzer.greedy_links(k)
