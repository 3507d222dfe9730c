"""Multiple Routing Configurations with the RiskRoute metric (Section 3.1).

The paper points at Kvalbein et al.'s MRC scheme ("backup configurations
that use a composite link metric that includes RiskRoute can be computed
off line following the method described in [38]").  MRC precomputes a
small set of routing configurations; each configuration *isolates* some
nodes by making transit through them prohibitively expensive while
keeping the topology connected, and every node is isolated in at least
one configuration.  When a node fails, routers switch to a configuration
that isolates it — loop-free recovery without recomputation.

This implementation assigns nodes to configurations round-robin in
descending RiskRoute node-risk order (the riskiest PoPs — the ones most
likely to need isolation — spread across configurations), verifies the
connectivity invariant, and routes with the composite risk metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..graph.components import is_connected
from ..graph.core import Graph
from ..graph.shortest_path import NoPathError
from ..risk.model import RiskModel
from ..session import RoutingSession
from .riskroute import RouteResult

__all__ = ["RoutingConfiguration", "MrcScheme", "build_mrc"]

#: Isolation penalty added to a node's entry cost in a configuration that
#: isolates it: effectively infinite next to any real route cost.
ISOLATION_PENALTY = 1e15


@dataclass(frozen=True)
class RoutingConfiguration:
    """One MRC backup configuration."""

    index: int
    isolated: Tuple[str, ...]
    session: RoutingSession

    def route(self, source: str, target: str) -> RouteResult:
        """Risk-route under this configuration.

        Isolated nodes remain reachable as *endpoints* (the isolation
        penalty is charged identically by every path into the target, so
        it cannot distort the choice); they are only avoided as transit.

        Raises:
            NoPathError: when disconnected.
        """
        return self.session.route(source, target)

    def transits_isolated(self, path: Sequence[str]) -> bool:
        """True when the path uses an isolated node as transit."""
        return any(node in self.isolated for node in path[1:-1])


class MrcScheme:
    """A complete set of MRC configurations for one network."""

    def __init__(
        self,
        graph: Graph[str],
        model: RiskModel,
        configurations: Sequence[RoutingConfiguration],
    ) -> None:
        self._graph = graph
        self._model = model
        self._configurations = list(configurations)
        self._isolating: Dict[str, int] = {}
        for config in self._configurations:
            for node in config.isolated:
                self._isolating.setdefault(node, config.index)

    @property
    def configuration_count(self) -> int:
        """Number of backup configurations."""
        return len(self._configurations)

    def configurations(self) -> List[RoutingConfiguration]:
        """All configurations."""
        return list(self._configurations)

    def configuration_isolating(self, node: str) -> RoutingConfiguration:
        """The configuration that isolates ``node``.

        Raises:
            KeyError: when no configuration isolates the node.
        """
        if node not in self._isolating:
            raise KeyError(f"no configuration isolates {node!r}")
        return self._configurations[self._isolating[node]]

    def recover(
        self, source: str, target: str, failed_node: str
    ) -> Optional[RouteResult]:
        """Route around a failed transit node using MRC.

        Returns None when the failed node is an endpoint (MRC cannot
        help) or when no path exists in the isolating configuration.
        """
        if failed_node in (source, target):
            return None
        config = self.configuration_isolating(failed_node)
        try:
            route = config.route(source, target)
        except NoPathError:
            return None
        if failed_node in route.path:
            return None  # isolation failed to keep the node off the path
        return route

    def verify(self) -> Set[str]:
        """Assert the MRC invariants; raises AssertionError on violation.

        * every node except (necessarily) cut vertices is isolated in
          some configuration, and
        * removing a configuration's isolated nodes leaves the remaining
          topology connected (so isolation cannot strand traffic between
          non-isolated nodes).

        Returns:
            The set of unprotectable nodes — cut vertices no valid
            configuration can isolate (MRC cannot recover their failure;
            neither can any other rerouting scheme).
        """
        from ..graph.components import articulation_points

        all_nodes = set(self._graph.nodes())
        isolated_somewhere = set(self._isolating)
        uncovered = all_nodes - isolated_somewhere
        cut_vertices = articulation_points(self._graph)
        assert uncovered <= cut_vertices, (
            f"non-cut nodes never isolated: "
            f"{sorted(uncovered - cut_vertices)}"
        )
        for config in self._configurations:
            survivors = all_nodes - set(config.isolated)
            if len(survivors) < 2:
                continue
            sub = self._graph.subgraph(survivors)
            assert is_connected(sub), (
                f"configuration {config.index} disconnects the survivors"
            )
        return uncovered


def build_mrc(
    graph: Graph[str],
    model: RiskModel,
    configuration_count: int = 3,
) -> MrcScheme:
    """Build an MRC scheme over a topology with the RiskRoute metric.

    Nodes are sorted by descending node risk and dealt round-robin into
    configurations; a node whose isolation would disconnect the
    remaining topology in its configuration is moved to the next one
    that can take it (and dropped from isolation entirely if none can —
    cut vertices cannot be isolated in any valid configuration; the
    verifier will flag them).

    Args:
        graph: the distance-weighted topology.
        model: the risk model (isolation order and routing metric).
        configuration_count: number of configurations (paper's reference
            uses a handful).

    Raises:
        ValueError: for fewer than 2 configurations or a disconnected
            topology.
    """
    if configuration_count < 2:
        raise ValueError("need at least two configurations")
    if not is_connected(graph):
        raise ValueError("topology must be connected")

    nodes = sorted(
        graph.nodes(), key=lambda n: (-model.node_risk(n), n)
    )
    assignments: List[Set[str]] = [set() for _ in range(configuration_count)]
    all_nodes = set(graph.nodes())

    def can_isolate(bucket: Set[str], node: str) -> bool:
        survivors = all_nodes - bucket - {node}
        if len(survivors) < 2:
            return False
        return is_connected(graph.subgraph(survivors))

    for position, node in enumerate(nodes):
        placed = False
        for offset in range(configuration_count):
            index = (position + offset) % configuration_count
            if can_isolate(assignments[index], node):
                assignments[index].add(node)
                placed = True
                break
        if not placed:
            # Cut vertex: leave it unisolated; verify() will surface it.
            continue

    configurations: List[RoutingConfiguration] = []
    # The isolation penalty rides in through the forecast-risk channel,
    # which needs a non-zero gamma_f to take effect.
    gamma_f = model.gamma_f if model.gamma_f > 0 else 1.0
    base_model = model.with_gammas(model.gamma_h, gamma_f)
    for index, isolated in enumerate(assignments):
        config_model = base_model.with_forecast_risk(
            {
                node: model.forecast_risk(node)
                + (ISOLATION_PENALTY / gamma_f if node in isolated else 0.0)
                for node in graph.nodes()
            }
        )
        configurations.append(
            RoutingConfiguration(
                index=index,
                isolated=tuple(sorted(isolated)),
                session=RoutingSession(graph, config_model),
            )
        )
    return MrcScheme(graph, model, configurations)
