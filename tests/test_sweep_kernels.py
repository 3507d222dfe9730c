"""The heapq sweep loop's target early-exit: a search stopped at its
target settles exactly what the full sweep settles up to it."""

import numpy as np

from repro.engine.arrays import CsrGraph
from repro.engine.sweep import csr_sweep
from repro.graph.core import Graph

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


def _lists(csr):
    return csr.indptr_list, csr.indices_list, csr.weights_list


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
