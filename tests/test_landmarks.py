"""Landmark (ALT) pruning tests.

The acceptance bar for the bound family is *exactness*: a pruned
targeted query (``csr_sweep`` with ``bounds=``) must return the same
distance as the unpruned sweep — bit-for-bit, since both accumulate
``(d + w) + alpha * risk`` in path order.  The hypothesis harness draws random geometric graphs (the
admissible-by-construction case for the great-circle bound: weights are
at least the great-circle distance) and random alphas, and checks the
property along with the pruning actually pruning.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.arrays import CsrGraph
from repro.engine.landmarks import LandmarkIndex
from repro.engine.sweep import csr_sweep
from repro.geo.coords import GeoPoint
from repro.geo.distance import haversine_miles
from repro.graph.core import Graph
from tests.conftest import examples

_INF = float("inf")


def geometric_csr(points, edges, risk_scale=1.0):
    """CSR + latlon + entry risk for a gc-weighted geometric graph."""
    g = Graph()
    for i in range(len(points)):
        g.add_node(f"n{i}")
    for i, j in edges:
        w = max(
            haversine_miles(GeoPoint(*points[i]), GeoPoint(*points[j])),
            1e-9,
        )
        g.add_edge(f"n{i}", f"n{j}", w)
    csr = CsrGraph(g)
    risk = risk_scale * np.linspace(0.2, 1.7, len(points))
    entry_risk = risk[np.asarray(csr.indices, dtype=np.int64)]
    latlon = np.asarray(points, dtype=np.float64)
    return csr, entry_risk, latlon


def grid_points(rows, cols, spacing_deg=1.0):
    """Points on a lat/lon grid around the continental-US interior."""
    return [
        (35.0 + r * spacing_deg, -100.0 + c * spacing_deg)
        for r in range(rows)
        for c in range(cols)
    ]


def grid_edges(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


@st.composite
def geometric_graphs(draw):
    """Connected-ish random geometric graphs with coordinates."""
    n = draw(st.integers(2, 12))
    points = [
        (
            draw(st.floats(28.0, 46.0, allow_nan=False)),
            draw(st.floats(-120.0, -75.0, allow_nan=False)),
        )
        for _ in range(n)
    ]
    # A random spanning chain plus extra chords.
    edges = [(i, i + 1) for i in range(n - 1)]
    pairs = [(i, j) for i in range(n) for j in range(i + 2, n)]
    extra = draw(st.integers(0, min(len(pairs), n)))
    if pairs and extra:
        edges += draw(
            st.lists(
                st.sampled_from(pairs),
                min_size=extra,
                max_size=extra,
                unique=True,
            )
        )
    alpha = draw(st.floats(0.0, 2.0, allow_nan=False))
    source = draw(st.integers(0, n - 1))
    target = draw(st.integers(0, n - 1))
    return points, sorted(set(edges)), alpha, source, target


class TestLandmarkProperties:
    """Satellite: pruned distances equal unpruned, property-tested."""

    @given(geometric_graphs())
    @settings(max_examples=examples(60), deadline=None)
    def test_pruned_equals_unpruned(self, case):
        points, edges, alpha, source, target = case
        csr, entry_risk, latlon = geometric_csr(points, edges)
        index = LandmarkIndex.build(
            csr.indptr, csr.indices, csr.weights, k=4, latlon=latlon
        )
        bounds = index.lower_bounds(target)
        pruned = csr_sweep(
            csr.indptr_list, csr.indices_list, csr.weights_list,
            entry_risk, source, alpha, target=target, bounds=bounds,
        )
        full = csr_sweep(
            csr.indptr_list, csr.indices_list, csr.weights_list,
            entry_risk, source, alpha,
        )
        if full.dist[target] == _INF:
            assert pruned.dist[target] == _INF
        else:
            # Bit-for-bit: both searches accumulate the same float ops.
            assert pruned.dist[target] == full.dist[target]
            path = pruned.path_to(target)
            assert path[0] == source
            assert path[-1] == target
            assert _path_cost(csr, entry_risk, path, alpha) == (
                pruned.dist[target]
            )

    @given(geometric_graphs())
    @settings(max_examples=examples(60), deadline=None)
    def test_bounds_are_admissible(self, case):
        points, edges, alpha, _, target = case
        csr, entry_risk, latlon = geometric_csr(points, edges)
        index = LandmarkIndex.build(
            csr.indptr, csr.indices, csr.weights, k=4, latlon=latlon
        )
        h = index.lower_bounds(target)
        # True alpha-weighted distances *to* the target (undirected
        # graph: sweep from the target).
        full = csr_sweep(
            csr.indptr_list, csr.indices_list, csr.weights_list,
            entry_risk, target, alpha,
        )
        for v in range(len(points)):
            true = full.dist[v]
            if true == _INF:
                continue  # inf bounds only ever mark unreachable nodes
            # Strict inequality can fail to the last ulp only through
            # float noise in the haversine; allow exactly that.
            assert h[v] <= true * (1 + 1e-12) + 1e-9


def _path_cost(csr, entry_risk, path, alpha):
    """Re-accumulate a path with the kernels' exact float op order."""
    total = 0.0
    for u, v in zip(path, path[1:]):
        for k in range(csr.indptr_list[u], csr.indptr_list[u + 1]):
            if csr.indices_list[k] == v:
                total = total + csr.weights_list[k] + alpha * entry_risk[k]
                break
        else:  # pragma: no cover - path edges always exist
            raise AssertionError(f"no edge {u}->{v}")
    return total


class TestTargetedSweep:
    def test_pruning_skips_settlements_on_a_grid(self):
        rows, cols = 8, 8
        csr, entry_risk, latlon = geometric_csr(
            grid_points(rows, cols), grid_edges(rows, cols)
        )
        index = LandmarkIndex.build(
            csr.indptr, csr.indices, csr.weights, k=6, latlon=latlon
        )
        source, target = 0, cols - 1  # corner to corner of the top row
        plain = csr_sweep(
            csr.indptr_list, csr.indices_list, csr.weights_list,
            entry_risk, source, 0.0, target=target,
        )
        pruned = csr_sweep(
            csr.indptr_list, csr.indices_list, csr.weights_list,
            entry_risk, source, 0.0, target=target,
            bounds=index.lower_bounds(target),
        )
        assert pruned.dist[target] == plain.dist[target]
        # Goal-direction must beat plain Dijkstra-with-early-exit.
        assert pruned.settled < plain.settled
        assert pruned.settled < rows * cols // 2

    def test_same_node_pair(self):
        csr, entry_risk, latlon = geometric_csr(
            grid_points(2, 2), grid_edges(2, 2)
        )
        result = csr_sweep(
            csr.indptr_list, csr.indices_list, csr.weights_list,
            entry_risk, 1, 0.5, target=1,
        )
        assert result.dist[1] == 0.0
        assert result.path_to(1) == [1]
        assert result.settled == 1

    def test_disconnected_pair_prunes_to_zero_settles(self):
        # Two 2x2 islands; landmark bounds prove non-reachability
        # before the search starts.
        points = grid_points(2, 2) + [
            (lat, lon + 40.0) for lat, lon in grid_points(2, 2)
        ]
        edges = grid_edges(2, 2) + [
            (i + 4, j + 4) for i, j in grid_edges(2, 2)
        ]
        csr, entry_risk, latlon = geometric_csr(points, edges)
        index = LandmarkIndex.build(
            csr.indptr, csr.indices, csr.weights, k=4, latlon=latlon
        )
        result = csr_sweep(
            csr.indptr_list, csr.indices_list, csr.weights_list,
            entry_risk, 0, 0.3, target=6, bounds=index.lower_bounds(6),
        )
        assert result.dist[6] == _INF
        with pytest.raises(ValueError):
            result.path_to(6)
        assert result.settled == 0

    def test_negative_alpha_rejected(self):
        csr, entry_risk, _ = geometric_csr(
            grid_points(2, 2), grid_edges(2, 2)
        )
        with pytest.raises(ValueError):
            csr_sweep(
                csr.indptr_list, csr.indices_list, csr.weights_list,
                entry_risk, 0, -0.1, target=1, bounds=[0.0] * 4,
            )

    def test_out_of_range_endpoints_rejected(self):
        csr, entry_risk, _ = geometric_csr(
            grid_points(2, 2), grid_edges(2, 2)
        )
        for s, t in ((9, 0), (0, 9), (-1, 0)):
            with pytest.raises(IndexError):
                csr_sweep(
                    csr.indptr_list, csr.indices_list, csr.weights_list,
                    entry_risk, s, 0.0, target=t,
                )


class TestLandmarkIndex:
    def test_build_without_coordinates_matches_graph_truth(self):
        csr, entry_risk, _ = geometric_csr(
            grid_points(4, 4), grid_edges(4, 4)
        )
        index = LandmarkIndex.build(
            csr.indptr, csr.indices, csr.weights, k=4
        )
        assert index.latlon is None
        assert 1 <= index.k <= 4
        assert index.node_count == 16
        # Table rows are exact geographic sweeps from each landmark.
        for row, landmark in zip(index.table, index.landmarks):
            ref = csr_sweep(
                csr.indptr_list, csr.indices_list, csr.weights_list,
                entry_risk, int(landmark), 0.0,
            )
            assert list(row) == ref.dist

    def test_graph_distance_selection_covers_other_components(self):
        # 3-node chain plus a 2-node island: the island must get a
        # landmark so its nodes have finite table rows.
        g = Graph()
        for i in range(5):
            g.add_node(f"n{i}")
        g.add_edge("n0", "n1", 1.0)
        g.add_edge("n1", "n2", 1.0)
        g.add_edge("n3", "n4", 1.0)
        csr = CsrGraph(g)
        index = LandmarkIndex.build(
            csr.indptr, csr.indices, csr.weights, k=3
        )
        assert any(int(l) in (3, 4) for l in index.landmarks)
        finite_per_node = np.isfinite(index.table).any(axis=0)
        assert finite_per_node.all()

    def test_k_clamped_to_node_count(self):
        csr, _, latlon = geometric_csr(grid_points(1, 2), [(0, 1)])
        index = LandmarkIndex.build(
            csr.indptr, csr.indices, csr.weights, k=10, latlon=latlon
        )
        assert index.k <= 2

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LandmarkIndex([0, 1], np.zeros((1, 4)))
        with pytest.raises(ValueError):
            LandmarkIndex([0], np.zeros((1, 4)), latlon=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            LandmarkIndex.build(np.asarray([0]), [], [], k=2)

    def test_lower_bounds_zero_at_target(self):
        csr, _, latlon = geometric_csr(
            grid_points(3, 3), grid_edges(3, 3)
        )
        index = LandmarkIndex.build(
            csr.indptr, csr.indices, csr.weights, k=3, latlon=latlon
        )
        for target in range(9):
            h = index.lower_bounds(target)
            assert h[target] == 0.0
            assert (h >= 0.0).all()
