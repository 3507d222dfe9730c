"""The risk-weighted sweep kernel.

:func:`csr_sweep` is the one search loop: a pure-Python heapq Dijkstra
over flat CSR arrays with integer nodes, relaxing ``(u, v)`` at cost
``d_uv + alpha * risk(v)``.  Its insertion-counter tie-break reproduces
the seed's dict-based search, distances and parents bit for bit.  It
optionally stops at a target, and optionally takes per-node lower
bounds that turn it into goal-directed A* (see
:mod:`repro.engine.landmarks`).

The loop does not report the order in which it touched nodes: engine
aggregates iterate targets in node-index order.  A sweep is the same
whether the engine ran it alone or in a prefetch, so only A*'s settle
order can pick a different path between exactly tied optima.

``alpha == 0`` degenerates to the plain geographic Dijkstra, so shortest
-path sweeps share this kernel (and its cache) too.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import List, Optional, Sequence

__all__ = ["SweepResult", "csr_sweep"]

_INF = float("inf")


@dataclass(frozen=True)
class SweepResult:
    """One single-source search over the CSR arrays.

    ``dist`` / ``parent`` are plain lists.  ``settled`` counts the
    nodes the search settled: every reached node for a full sweep,
    fewer when it stopped at a target.
    """

    source: int
    alpha: float
    dist: Sequence[float]
    parent: Sequence[int]
    settled: int

    def path_to(self, target: int) -> List[int]:
        """Node index path source → target (parent-chain walk).

        Raises:
            ValueError: if ``target`` was not reached.
        """
        if self.dist[target] == _INF:
            raise ValueError(f"node {target} unreachable in sweep")
        path = [int(target)]
        node = int(target)
        while node != self.source:
            node = int(self.parent[node])
            path.append(node)
        path.reverse()
        return path


def csr_sweep(
    indptr: Sequence[int],
    indices: Sequence[int],
    weights: Sequence[float],
    entry_risk: Sequence[float],
    source: int,
    alpha: float,
    target: Optional[int] = None,
    bounds: Optional[Sequence[float]] = None,
) -> SweepResult:
    """Risk-weighted Dijkstra over CSR arrays.

    Args:
        indptr / indices / weights: the CSR adjacency.
        entry_risk: per-CSR-entry risk of the *entered* node, i.e.
            ``node_risk[indices[k]]`` pre-gathered flat.
        source: start node index.
        alpha: impact scaling (0 → pure geographic shortest path).
        target: optional early-exit node — the search stops as soon as
            the target is *settled*, leaving later nodes unsettled.
            Settle order up to the target is that of the full sweep, so
            ``dist[target]`` and the parent chain to it are identical.
            The engine caches full sweeps (no target), which many
            queries share, and runs a target-stopped search for an
            ``EXACT`` pair, whose impact no other query shares.
        bounds: optional per-node lower bounds on the remaining cost to
            ``target`` (``LandmarkIndex.lower_bounds(target)``, see
            :mod:`repro.engine.landmarks`), which make the search A*:
            the heap key is ``dist + h``, a neighbour with ``h == inf``
            (provably cut off from the target) is never entered, and a
            source whose bound is ``inf`` returns with nothing settled.
            With an admissible, consistent bound the target settles at
            exactly the unbounded distance, bit for bit; only the settle
            order changes, so between exactly-tied optima the path may
            differ.  Pass a list: numpy scalar indexing is slow here.

    Raises:
        IndexError: for a source or target outside the graph.
        ValueError: for a negative alpha with ``bounds`` (the bounds
            are admissible only for ``alpha >= 0``).
    """
    n = len(indptr) - 1
    if not 0 <= source < n or (target is not None and not 0 <= target < n):
        raise IndexError("source/target index out of range")
    dist = [_INF] * n
    parent = [-1] * n
    dist[source] = 0.0
    if bounds is not None:
        if alpha < 0.0:
            raise ValueError("alpha must be >= 0 for bounded search")
        if bounds[source] == _INF:
            return SweepResult(source, alpha, dist, parent, 0)
    settled = bytearray(n)
    counter = 0
    heap = [(0.0, 0, source)]
    while heap:
        node = heappop(heap)[2]
        if settled[node]:
            continue
        settled[node] = 1
        if node == target:
            break
        d = dist[node]
        for k in range(indptr[node], indptr[node + 1]):
            nbr = indices[k]
            if settled[nbr]:
                continue
            candidate = d + weights[k] + alpha * entry_risk[k]
            if candidate < dist[nbr]:
                key = candidate
                if bounds is not None:
                    h = bounds[nbr]
                    if h == _INF:
                        continue
                    key = candidate + h
                dist[nbr] = candidate
                parent[nbr] = node
                counter += 1
                heappush(heap, (key, counter, nbr))
    return SweepResult(source, alpha, dist, parent, settled.count(1))
