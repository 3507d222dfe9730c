"""Tests for repro.graph.components."""

from repro.graph.components import bridges, connected_components
from repro.graph.core import Graph
from tests.conftest import graph_from_edges


def two_triangles_with_bridge() -> Graph:
    """Triangles a-b-c and d-e-f joined by bridge c-d."""
    return graph_from_edges(
        [
            ("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0),
            ("d", "e", 1.0), ("e", "f", 1.0), ("d", "f", 1.0),
            ("c", "d", 1.0),
        ]
    )


class TestComponents:
    def test_single_component(self):
        assert len(connected_components(two_triangles_with_bridge())) == 1

    def test_two_components(self):
        g = graph_from_edges([("a", "b", 1.0), ("c", "d", 1.0)])
        comps = connected_components(g)
        assert sorted(sorted(c) for c in comps) == [["a", "b"], ["c", "d"]]

    def test_isolated_node_is_component(self):
        g = Graph()
        g.add_node("solo")
        assert connected_components(g) == [["solo"]]

    def test_empty_graph(self):
        assert connected_components(Graph()) == []


class TestBridges:
    def test_single_bridge(self):
        found = bridges(two_triangles_with_bridge())
        assert [frozenset(e) for e in found] == [frozenset(("c", "d"))]

    def test_tree_all_edges_are_bridges(self):
        g = graph_from_edges([("a", "b", 1.0), ("b", "c", 1.0)])
        assert len(bridges(g)) == 2

    def test_cycle_has_no_bridges(self):
        g = graph_from_edges(
            [("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)]
        )
        assert bridges(g) == []
