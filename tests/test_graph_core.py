"""Tests for repro.graph.core."""

import pytest

from repro.graph.core import EdgeExistsError, Graph
from tests.conftest import graph_from_edges


def triangle() -> Graph:
    return graph_from_edges([("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 4.0)])


class TestConstruction:
    def test_empty(self):
        g = Graph()
        assert g.node_count == 0
        assert g.edge_count == 0

    def test_from_edges(self):
        g = triangle()
        assert g.node_count == 3
        assert g.edge_count == 3

    def test_add_node_idempotent(self):
        g = Graph()
        g.add_node("a")
        g.add_node("a")
        assert g.node_count == 1

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_edge("a", "a", 1.0)

    def test_negative_weight_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_edge("a", "b", -1.0)

    def test_nan_weight_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_edge("a", "b", float("nan"))

    def test_duplicate_edge_rejected(self):
        g = triangle()
        with pytest.raises(EdgeExistsError):
            g.add_edge("a", "b", 9.0)
        with pytest.raises(EdgeExistsError):
            g.add_edge("b", "a", 9.0)


class TestMutation:

    def test_remove_edge(self):
        g = triangle()
        g.remove_edge("a", "b")
        assert not g.has_edge("a", "b")
        assert g.edge_count == 2

    def test_remove_missing_edge(self):
        g = triangle()
        g.remove_edge("a", "b")
        with pytest.raises(KeyError):
            g.remove_edge("a", "b")


class TestQueries:
    def test_contains(self):
        g = triangle()
        assert "a" in g
        assert "z" not in g

    def test_len(self):
        assert len(triangle()) == 3

    def test_weight_lookup(self):
        g = triangle()
        assert g.weight("b", "c") == 2.0
        assert g.weight("c", "b") == 2.0

    def test_weight_missing(self):
        with pytest.raises(KeyError):
            triangle().weight("a", "zzz")

    def test_neighbors_is_copy(self):
        g = triangle()
        neighbors = g.neighbors("a")
        neighbors["b"] = 999.0
        assert g.weight("a", "b") == 1.0

    def test_degree(self):
        g = triangle()
        assert g.degree("a") == 2

    def test_path_weight(self):
        g = triangle()
        assert g.path_weight(["a", "b", "c"]) == pytest.approx(3.0)

    def test_path_weight_broken_path(self):
        g = triangle()
        g.remove_edge("b", "c")
        with pytest.raises(KeyError):
            g.path_weight(["a", "b", "c"])

    def test_nodes_insertion_order(self):
        g = Graph()
        for name in ("x", "a", "m"):
            g.add_node(name)
        assert list(g.nodes()) == ["x", "a", "m"]


class TestCopies:
    def test_copy_independent(self):
        g = triangle()
        clone = g.copy()
        clone.remove_edge("a", "b")
        assert g.has_edge("a", "b")

    def test_repr(self):
        assert "nodes=3" in repr(triangle())
