"""Tests for repro.graph.shortest_path."""

import pytest

from repro.graph.core import Graph, NodeNotFoundError
from repro.graph.shortest_path import (
    NoPathError,
    all_pairs_shortest_paths,
    dijkstra,
    reconstruct_path,
)
from tests.conftest import graph_from_edges, shortest_path


def grid_graph() -> Graph:
    """A 2x3 grid with unit weights plus a heavy shortcut."""
    g = Graph()
    edges = [
        ("a", "b", 1.0), ("b", "c", 1.0),
        ("d", "e", 1.0), ("e", "f", 1.0),
        ("a", "d", 1.0), ("b", "e", 1.0), ("c", "f", 1.0),
        ("a", "f", 10.0),
    ]
    for u, v, w in edges:
        g.add_edge(u, v, w)
    return g


class TestDijkstra:
    def test_distances(self):
        dist, _ = dijkstra(grid_graph(), "a")
        assert dist["a"] == 0.0
        assert dist["c"] == 2.0
        assert dist["f"] == 3.0  # not the 10.0 shortcut

    def test_unknown_source(self):
        with pytest.raises(NodeNotFoundError):
            dijkstra(grid_graph(), "zzz")

    def test_disconnected_component_not_reached(self):
        g = grid_graph()
        g.add_node("island")
        dist, _ = dijkstra(g, "a")
        assert "island" not in dist

    def test_dicts_in_node_order(self):
        g = grid_graph()
        dist, parent = dijkstra(g, "f")
        assert list(dist) == list(g.nodes())
        assert list(parent) == [n for n in g.nodes() if n != "f"]


class TestShortestPath:
    def test_path_endpoints(self):
        path = shortest_path(grid_graph(), "a", "f")
        assert path[0] == "a"
        assert path[-1] == "f"
        assert grid_graph().path_weight(path) == pytest.approx(3.0)

    def test_trivial_path(self):
        assert shortest_path(grid_graph(), "a", "a") == ["a"]

    def test_no_path_raises(self):
        g = grid_graph()
        g.add_node("island")
        with pytest.raises(NoPathError):
            shortest_path(g, "a", "island")

    def test_deterministic_tie_break(self):
        # Two equal-cost routes a->b->d and a->c->d: first-inserted wins.
        g = graph_from_edges(
            [("a", "b", 1.0), ("b", "d", 1.0), ("a", "c", 1.0), ("c", "d", 1.0)]
        )
        assert shortest_path(g, "a", "d") == ["a", "b", "d"]


class TestAllPairs:
    def test_covers_every_source(self):
        sweeps = all_pairs_shortest_paths(grid_graph())
        assert set(sweeps) == {"a", "b", "c", "d", "e", "f"}

    def test_symmetric_distances(self):
        sweeps = all_pairs_shortest_paths(grid_graph())
        assert sweeps["a"][0]["f"] == pytest.approx(sweeps["f"][0]["a"])

    def test_matches_single_source(self):
        g = grid_graph()
        sweeps = all_pairs_shortest_paths(g)
        for source in g.nodes():
            assert sweeps[source] == dijkstra(g, source)


class TestReconstructPath:
    def test_missing_target(self):
        with pytest.raises(NoPathError):
            reconstruct_path({}, "a", "b")

    def test_same_node(self):
        assert reconstruct_path({}, "a", "a") == ["a"]
