"""Kernel-parity tests: the bucketed multi-source sweep vs the heapq
loop, plus the heapq loop's target early-exit.

The bucketed kernel's contract (see :mod:`repro.engine.sweep`) is that
distances and parents are *bitwise* equal to the reference whenever the
shortest-path tree is unique — candidate costs are accumulated with the
identical float operations in path order.  The hypothesis harness draws
random small topologies and alphas and pins exactly that.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.arrays import CsrGraph
from repro.engine.sweep import csr_sweep, csr_sweep_batch
from repro.graph.core import Graph
from tests.conftest import examples

_INF = float("inf")


def build_csr(edges, n):
    """CSR arrays + per-entry risk for an undirected weighted graph."""
    g = Graph()
    for i in range(n):
        g.add_node(f"n{i}")
    for i, j, w in edges:
        g.add_edge(f"n{i}", f"n{j}", w)
    csr = CsrGraph(g)
    risk = np.linspace(0.1, 2.0, n)
    entry_risk = risk[np.asarray(csr.indices, dtype=np.int64)]
    return csr, entry_risk


def line_csr(weights):
    """A path graph 0-1-2-...-k with the given edge weights."""
    n = len(weights) + 1
    return build_csr(
        [(i, i + 1, w) for i, w in enumerate(weights)], n
    )


@st.composite
def random_topologies(draw):
    """(edges, n, alphas): sparse random graphs, 2-14 nodes."""
    n = draw(st.integers(2, 14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    count = draw(st.integers(0, min(len(pairs), 3 * n)))
    chosen = draw(
        st.lists(
            st.sampled_from(pairs),
            min_size=count,
            max_size=count,
            unique=True,
        )
    ) if pairs else []
    edges = [
        (i, j, draw(st.floats(0.05, 50.0, allow_nan=False)))
        for i, j in chosen
    ]
    alpha = draw(st.floats(0.0, 3.0, allow_nan=False))
    return edges, n, (0.0, alpha)


class TestBucketedParity:
    """Satellite: property test that bucketed == exact, bit for bit."""

    @given(random_topologies())
    @settings(max_examples=examples(80), deadline=None)
    def test_matches_reference_bitwise(self, topo):
        edges, n, alphas = topo
        csr, entry_risk = build_csr(edges, n)
        sources = list(range(n))
        for alpha in alphas:
            batch = csr_sweep_batch(
                csr.indptr, csr.indices, csr.weights, entry_risk,
                sources, alpha,
            )
            assert len(batch) == n
            for source, result in zip(sources, batch):
                ref = csr_sweep(
                    *_lists(csr), entry_risk, source, alpha
                )
                assert result.source == source
                assert result.alpha == alpha
                # Bitwise: == on floats, no tolerance.
                assert list(result.dist) == ref.dist
                assert result.settled == ref.settled
                # Parents are pinned exactly wherever the tree is
                # unique; on exact ties each kernel's deterministic
                # tie-break may pick a different optimal predecessor,
                # so there we require only that the chosen parent
                # achieves the distance bit-for-bit.
                for v in range(n):
                    p = int(result.parent[v])
                    if v == source or ref.dist[v] == _INF:
                        assert p == ref.parent[v] == -1
                        continue
                    achievers = _achievers(
                        csr, entry_risk, ref.dist, v, alpha
                    )
                    assert p in achievers
                    if len(achievers) == 1:
                        assert p == ref.parent[v]

    @given(random_topologies())
    @settings(max_examples=examples(40), deadline=None)
    def test_delta_choice_is_correctness_neutral(self, topo):
        edges, n, alphas = topo
        csr, entry_risk = build_csr(edges, n)
        sources = list(range(n))
        alpha = alphas[1]
        reference = csr_sweep_batch(
            csr.indptr, csr.indices, csr.weights, entry_risk,
            sources, alpha,
        )
        for delta in (1e-6, 0.7, 1e9):
            other = csr_sweep_batch(
                csr.indptr, csr.indices, csr.weights, entry_risk,
                sources, alpha, delta=delta,
            )
            for a, b in zip(reference, other):
                # Distances are delta-invariant bit-for-bit; parents
                # may differ between exactly-tied optima (the bucket
                # layout decides which achiever relaxes first), but
                # must always achieve the distance.
                assert np.array_equal(a.dist, b.dist)
                for v in range(n):
                    if v == b.source or a.dist[v] == _INF:
                        assert int(b.parent[v]) == -1
                        continue
                    assert int(b.parent[v]) in _achievers(
                        csr, entry_risk, list(a.dist), v, alpha
                    )


def _lists(csr):
    return csr.indptr_list, csr.indices_list, csr.weights_list


def _achievers(csr, entry_risk, dist, v, alpha):
    """Every predecessor u whose relaxation hits dist[v] bit-for-bit."""
    found = set()
    for u in range(csr.node_count):
        for k in range(csr.indptr_list[u], csr.indptr_list[u + 1]):
            if csr.indices_list[k] != v or dist[u] == _INF:
                continue
            cand = dist[u] + csr.weights_list[k] + alpha * entry_risk[k]
            if cand == dist[v]:
                found.add(u)
    return found


class TestBucketedEdgeCases:
    def test_empty_sources(self):
        csr, entry_risk = line_csr([1.0, 2.0])
        assert csr_sweep_batch(
            csr.indptr, csr.indices, csr.weights, entry_risk, [], 0.0
        ) == []

    def test_repeated_source_both_answered(self):
        csr, entry_risk = line_csr([1.0, 2.0, 3.0])
        batch = csr_sweep_batch(
            csr.indptr, csr.indices, csr.weights, entry_risk,
            [2, 2], 0.5,
        )
        assert len(batch) == 2
        assert np.array_equal(batch[0].dist, batch[1].dist)
        assert np.array_equal(batch[0].parent, batch[1].parent)

    def test_out_of_range_source_rejected(self):
        csr, entry_risk = line_csr([1.0])
        with pytest.raises(IndexError):
            csr_sweep_batch(
                csr.indptr, csr.indices, csr.weights, entry_risk,
                [5], 0.0,
            )

    def test_disconnected_nodes_stay_inf(self):
        csr, entry_risk = build_csr([(0, 1, 2.0)], 4)
        (result,) = csr_sweep_batch(
            csr.indptr, csr.indices, csr.weights, entry_risk, [0], 0.0
        )
        assert result.dist[1] == 2.0
        assert result.dist[2] == _INF and result.dist[3] == _INF
        assert result.parent[2] == -1 and result.parent[3] == -1

    def test_path_to_walks_parent_chain(self):
        csr, entry_risk = line_csr([1.0, 1.0, 1.0])
        (result,) = csr_sweep_batch(
            csr.indptr, csr.indices, csr.weights, entry_risk, [0], 0.0
        )
        assert result.path_to(3) == [0, 1, 2, 3]
        csr2, er2 = build_csr([(0, 1, 1.0)], 3)
        (r2,) = csr_sweep_batch(
            csr2.indptr, csr2.indices, csr2.weights, er2, [0], 0.0
        )
        with pytest.raises(ValueError):
            r2.path_to(2)


class TestExactEarlyExit:
    """Satellite: csr_sweep's target early-exit regression pins."""

    def test_target_settle_stops_the_sweep(self):
        # Line 0-1-2-3-4: exiting at node 1 must leave 3 and 4 untouched.
        csr, entry_risk = line_csr([1.0, 1.0, 1.0, 1.0])
        early = csr_sweep(*_lists(csr), entry_risk, 0, 0.0, target=1)
        assert early.dist[1] == 1.0
        assert early.dist[3] == _INF and early.dist[4] == _INF
        assert early.settled == 2

    def test_early_exit_prefix_matches_full_sweep(self):
        csr, entry_risk = build_csr(
            [(0, 1, 1.0), (0, 2, 4.0), (1, 2, 1.0), (2, 3, 1.0),
             (1, 3, 5.0), (3, 4, 2.0)],
            5,
        )
        for alpha in (0.0, 0.3):
            full = csr_sweep(*_lists(csr), entry_risk, 0, alpha)
            for target in range(5):
                early = csr_sweep(
                    *_lists(csr), entry_risk, 0, alpha, target=target
                )
                # Parity-safety contract: distance and parent chain
                # identical to the full sweep.
                assert early.dist[target] == full.dist[target]
                assert early.path_to(target) == full.path_to(target)

    def test_unreached_target_degenerates_to_full_sweep(self):
        csr, entry_risk = build_csr([(0, 1, 1.0)], 3)
        early = csr_sweep(*_lists(csr), entry_risk, 0, 0.0, target=2)
        full = csr_sweep(*_lists(csr), entry_risk, 0, 0.0)
        assert early.dist == full.dist
