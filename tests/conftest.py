"""Shared fixtures.

Most tests avoid the full synthetic corpus (census + 176k disaster
events + KDE sweeps) and work on small hand-built networks with explicit
risk numbers; a few session-scoped fixtures expose the real corpus for
integration tests.
"""

from __future__ import annotations

import math
import os
import random

import pytest
from hypothesis import settings

from repro.engine.arrays import CsrGraph
from repro.engine.sweep import csr_sweep
from repro.geo.coords import GeoPoint
from repro.graph.core import Graph
from repro.graph.shortest_path import dijkstra, reconstruct_path
from repro.risk.model import RiskModel
from repro.topology.network import Network, NetworkTier, PoP


#: Hypothesis profile for this run, from ``HYPOTHESIS_PROFILE``.  ``ci``
#: (the default, and what tier-1 runs) is derandomized: every run draws
#: the same examples, so a pass or a failure reproduces exactly.
#: ``explore`` draws fresh random examples with ``EXPLORE_SCALE`` times
#: each property test's budget, to find inputs the fixed draw misses;
#: pin each defect it finds as an ``@example`` on the test.
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "ci")
EXPLORE_SCALE = 20

settings.register_profile(
    "ci", derandomize=True, deadline=None, print_blob=True
)
settings.register_profile(
    "explore", max_examples=100 * EXPLORE_SCALE, deadline=None,
    print_blob=True,
)
settings.load_profile(PROFILE)


def examples(budget: int) -> int:
    """A property test's ``max_examples``: its own ``budget`` under
    ``ci``, ``EXPLORE_SCALE`` times that under ``explore``."""
    return budget * EXPLORE_SCALE if PROFILE == "explore" else budget


def graph_from_edges(edges) -> Graph:
    """A graph built by ``add_edge`` from ``(u, v, weight)`` triples."""
    graph: Graph = Graph()
    for u, v, weight in edges:
        graph.add_edge(u, v, weight)
    return graph


def shortest_path(graph: Graph, source, target) -> list:
    """The minimum-weight path, read off Dijkstra's parent map."""
    _, parent = dijkstra(graph, source)
    return reconstruct_path(parent, source, target)


def reaches_every_node(graph: Graph) -> bool:
    """True when a ``csr_sweep`` from node 0 reaches every node, i.e.
    the graph is one connected component (an empty graph is not)."""
    csr = CsrGraph(graph)
    if csr.node_count == 0:
        return False
    sweep = csr_sweep(
        csr.indptr_list,
        csr.indices_list,
        csr.weights_list,
        [0.0] * len(csr.indices_list),
        0,
        0.0,
    )
    return all(d < math.inf for d in sweep.dist)


def build_diamond_network() -> Network:
    """Four PoPs in a diamond; two routes between west and east.

    Layout (approximately)::

            north (41.5, -95)
           /               \\
    west (39, -100)     east (39, -90)
           \\               /
            south (37, -95)

    The south transit PoP is on the geometrically *shorter* corridor but
    is risky, so shortest-path routing and RiskRoute disagree.
    """
    network = Network("diamond", tier=NetworkTier.TIER1)
    network.add_pop(PoP("diamond:west", "West", GeoPoint(39.0, -100.0)))
    network.add_pop(PoP("diamond:east", "East", GeoPoint(39.0, -90.0)))
    network.add_pop(PoP("diamond:north", "North", GeoPoint(41.5, -95.0)))
    network.add_pop(PoP("diamond:south", "South", GeoPoint(37.0, -95.0)))
    network.add_link("diamond:west", "diamond:north")
    network.add_link("diamond:north", "diamond:east")
    network.add_link("diamond:west", "diamond:south")
    network.add_link("diamond:south", "diamond:east")
    return network


def build_diamond_model(
    south_risk: float = 5e-2,
    north_risk: float = 1e-3,
    gamma_h: float = 1e5,
    gamma_f: float = 1e3,
) -> RiskModel:
    """A risk model for the diamond: the south transit PoP is risky."""
    shares = {
        "diamond:west": 0.3,
        "diamond:east": 0.3,
        "diamond:north": 0.2,
        "diamond:south": 0.2,
    }
    oh = {
        "diamond:west": 1e-3,
        "diamond:east": 1e-3,
        "diamond:north": north_risk,
        "diamond:south": south_risk,
    }
    of = {pop_id: 0.0 for pop_id in shares}
    return RiskModel(shares, oh, of, gamma_h=gamma_h, gamma_f=gamma_f)


def build_zero_mile_world(b_risk: float):
    """a -(0 mi)- b -(100 mi)- c, plus a 150-mile a-c chord: the
    graph and model of the zero-denominator edge cases."""
    graph = Graph()
    for node in ("a", "b", "c"):
        graph.add_node(node)
    graph.add_edge("a", "b", 0.0)
    graph.add_edge("b", "c", 100.0)
    graph.add_edge("a", "c", 150.0)
    nodes = list(graph.nodes())
    model = RiskModel(
        {node: 1.0 / 3.0 for node in nodes},
        {"a": 0.0, "b": b_risk, "c": 0.02},
        {node: 0.0 for node in nodes},
        gamma_h=1e4,
    )
    return graph, model


def build_tied_grid(oh_seed=None):
    """A 9x9 unit-weight grid (81 nodes, full of exactly tied shortest
    paths) and a model with equal shares and no forecast risk.  ``o_h``
    is 0, or with ``oh_seed`` drawn ``uniform(0, 0.2)`` per node, in
    sorted node order, from ``random.Random(oh_seed)``."""
    side = 9
    edges = []
    for row in range(side):
        for col in range(side):
            if col + 1 < side:
                edges.append((f"g:{row},{col}", f"g:{row},{col + 1}", 1.0))
            if row + 1 < side:
                edges.append((f"g:{row},{col}", f"g:{row + 1},{col}", 1.0))
    graph = graph_from_edges(edges)
    nodes = sorted(graph.nodes())
    oh = dict.fromkeys(nodes, 0.0)
    if oh_seed is not None:
        rng = random.Random(oh_seed)
        oh = {node: rng.uniform(0.0, 0.2) for node in nodes}
    model = RiskModel(
        dict.fromkeys(nodes, 1.0 / len(nodes)),
        oh,
        dict.fromkeys(nodes, 0.0),
    )
    return graph, model


@pytest.fixture
def diamond_network() -> Network:
    return build_diamond_network()


@pytest.fixture
def diamond_model() -> RiskModel:
    return build_diamond_model()


@pytest.fixture(scope="session")
def teliasonera():
    """A real corpus network (15 PoPs), built once per session."""
    from repro.topology.zoo import network_by_name

    return network_by_name("Teliasonera")


@pytest.fixture(scope="session")
def teliasonera_model(teliasonera):
    """The full default risk model for Teliasonera (KDE + census)."""
    return RiskModel.for_network(teliasonera)
