"""Property-based tests for the graph substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.components import connected_components
from repro.graph.core import Graph
from repro.graph.shortest_path import NoPathError, dijkstra
from tests.conftest import examples, shortest_path


@st.composite
def random_graphs(draw):
    """Small random weighted graphs with 2-12 nodes."""
    n = draw(st.integers(2, 12))
    nodes = [f"n{i}" for i in range(n)]
    g = Graph()
    for node in nodes:
        g.add_node(node)
    max_edges = n * (n - 1) // 2
    edge_count = draw(st.integers(0, max_edges))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(
        st.lists(
            st.sampled_from(pairs),
            min_size=edge_count,
            max_size=edge_count,
            unique=True,
        )
    ) if pairs else []
    for i, j in chosen:
        weight = draw(st.floats(0.1, 100.0, allow_nan=False))
        g.add_edge(nodes[i], nodes[j], weight)
    return g


class TestDijkstraProperties:
    @given(random_graphs())
    @settings(max_examples=examples(60), deadline=None)
    def test_distances_satisfy_edge_relaxation(self, g):
        nodes = list(g.nodes())
        dist, _ = dijkstra(g, nodes[0])
        for u in g.nodes():
            for v, w in g.neighbors(u).items():
                if u not in dist or v not in dist:
                    continue
                assert dist[v] <= dist[u] + w + 1e-9
                assert dist[u] <= dist[v] + w + 1e-9

    @given(random_graphs())
    @settings(max_examples=examples(60), deadline=None)
    def test_path_weight_matches_distance(self, g):
        nodes = list(g.nodes())
        source = nodes[0]
        dist, _ = dijkstra(g, source)
        for target in nodes[1:]:
            if target not in dist:
                continue
            path = shortest_path(g, source, target)
            assert abs(g.path_weight(path) - dist[target]) < 1e-9
            assert path[0] == source and path[-1] == target

    @given(random_graphs())
    @settings(max_examples=examples(60), deadline=None)
    def test_symmetry_of_distance(self, g):
        nodes = list(g.nodes())
        a, b = nodes[0], nodes[-1]
        try:
            forward = shortest_path(g, a, b)
        except NoPathError:
            return
        backward = shortest_path(g, b, a)
        assert abs(
            g.path_weight(forward) - g.path_weight(backward)
        ) < 1e-9


class TestComponentProperties:
    @given(random_graphs())
    @settings(max_examples=examples(60), deadline=None)
    def test_components_partition_nodes(self, g):
        comps = connected_components(g)
        seen = [n for comp in comps for n in comp]
        assert sorted(seen) == sorted(g.nodes())
        assert len(seen) == len(set(seen))

    @given(random_graphs())
    @settings(max_examples=examples(60), deadline=None)
    def test_reachability_matches_components(self, g):
        comps = connected_components(g)
        labels = {}
        for idx, comp in enumerate(comps):
            for node in comp:
                labels[node] = idx
        nodes = list(g.nodes())
        dist, _ = dijkstra(g, nodes[0])
        for node in nodes:
            if labels[node] == labels[nodes[0]]:
                assert node in dist
            else:
                assert node not in dist
