"""Property-based tests for the RiskRoute core invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitrisk import path_metrics
from repro.session import RoutingSession
from repro.core.strategy import SweepStrategy
from repro.engine import RoutingEngine
from repro.graph.core import Graph
from repro.risk.model import RiskModel
from tests.conftest import examples
from tests.oracles import reference_aggregates


@st.composite
def routed_worlds(draw):
    """A connected random graph plus a compatible risk model."""
    n = draw(st.integers(3, 10))
    nodes = [f"p{i}" for i in range(n)]
    g = Graph()
    for node in nodes:
        g.add_node(node)
    # Spanning chain guarantees connectivity.
    for a, b in zip(nodes, nodes[1:]):
        g.add_edge(a, b, draw(st.floats(10.0, 500.0)))
    # Random chords.
    extra = draw(st.integers(0, n))
    pairs = [(i, j) for i in range(n) for j in range(i + 2, n)]
    if pairs:
        for i, j in draw(
            st.lists(
                st.sampled_from(pairs), min_size=0, max_size=extra, unique=True
            )
        ):
            g.add_edge(nodes[i], nodes[j], draw(st.floats(10.0, 800.0)))

    raw_shares = [draw(st.floats(0.01, 1.0)) for _ in nodes]
    total = sum(raw_shares)
    shares = {node: s / total for node, s in zip(nodes, raw_shares)}
    oh = {node: draw(st.floats(0.0, 0.05)) for node in nodes}
    of = {node: draw(st.sampled_from([0.0, 0.0, 50.0, 100.0])) for node in nodes}
    gamma_h = draw(st.sampled_from([0.0, 1e4, 1e5, 1e6]))
    model = RiskModel(shares, oh, of, gamma_h=gamma_h, gamma_f=1e3)
    return g, model


class TestOptimizerInvariants:
    @given(routed_worlds())
    @settings(max_examples=examples(50), deadline=None)
    def test_riskroute_never_beats_shortest_on_miles(self, world):
        g, model = world
        session = RoutingSession(g, model)
        nodes = list(g.nodes())
        pair = session.pair(nodes[0], nodes[-1])
        assert pair.shortest.bit_miles <= pair.riskroute.bit_miles + 1e-6

    @given(routed_worlds())
    @settings(max_examples=examples(50), deadline=None)
    def test_shortest_never_beats_riskroute_on_bit_risk(self, world):
        g, model = world
        session = RoutingSession(g, model)
        nodes = list(g.nodes())
        pair = session.pair(nodes[0], nodes[-1])
        assert (
            pair.riskroute.bit_risk_miles
            <= pair.shortest.bit_risk_miles + 1e-6
        )

    @given(routed_worlds())
    @settings(max_examples=examples(50), deadline=None)
    def test_optimum_beats_every_reported_alternative(self, world):
        """The exact per-pair route is no worse than any per-source
        approximate route for the same pair."""
        g, model = world
        session = RoutingSession(g, model)
        nodes = list(g.nodes())
        source = nodes[0]
        exact = session.routes_from(source, strategy="exact")
        approx = session.routes_from(source, strategy="per-source")
        for target, route in approx.items():
            assert (
                exact[target].bit_risk_miles <= route.bit_risk_miles + 1e-6
            )

    @given(routed_worlds())
    @settings(max_examples=examples(50), deadline=None)
    def test_reported_costs_match_path_re_evaluation(self, world):
        g, model = world
        session = RoutingSession(g, model)
        nodes = list(g.nodes())
        routes = session.routes_from(nodes[0], strategy="exact")
        for target, route in routes.items():
            metrics = path_metrics(g, list(route.path), model)
            assert abs(metrics.bit_risk_miles - route.bit_risk_miles) < 1e-9

    @given(routed_worlds())
    @settings(max_examples=examples(30), deadline=None)
    def test_paths_are_simple(self, world):
        g, model = world
        session = RoutingSession(g, model)
        nodes = list(g.nodes())
        routes = session.routes_from(nodes[0], strategy="exact")
        for route in routes.values():
            assert len(route.path) == len(set(route.path))


class TestAggregateParity:
    @given(routed_worlds(), st.data())
    @settings(max_examples=examples(40), deadline=None)
    def test_aggregates_equal_scalar_reference(self, world, data):
        """rr, dr and pair_count summed from sweep component arrays
        equal the per-pair reference exactly, for random source and
        target subsets under both strategies."""
        g, model = world
        nodes = list(g.nodes())
        subset = st.lists(
            st.sampled_from(nodes), min_size=1, max_size=len(nodes)
        )
        sources = data.draw(subset, label="sources")
        targets = data.draw(subset, label="targets")
        for strategy in SweepStrategy:
            engine = RoutingEngine(g, model)
            reference = reference_aggregates(
                RoutingEngine(g, model), sources, targets, strategy
            )
            if reference is None:
                with pytest.raises(ValueError):
                    engine.ratios(sources, targets, strategy=strategy)
            else:
                assert engine.ratios(sources, targets, strategy) == reference
