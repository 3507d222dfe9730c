"""The risk-weighted sweep kernels.

Two kernels settle the same search — relaxing ``(u, v)`` costs
``d_uv + alpha * risk(v)`` over flat CSR arrays with integer nodes:

* :func:`csr_sweep` — the one heapq relaxation loop: a pure-Python
  Dijkstra whose insertion-counter tie-break reproduces the seed's
  dict-based search.  It optionally stops at a target, and optionally
  takes per-node lower bounds that turn it into goal-directed A* (see
  :mod:`repro.engine.landmarks`).
* :func:`csr_sweep_batch` — the **bucketed multi-source kernel**: a
  vectorized delta-stepping-style search that settles whole frontiers
  with numpy relaxations, running *many sources at once* over one shared
  set of effective edge costs (one alpha).  Distances and
  parents agree with :func:`csr_sweep` bit-for-bit whenever the
  shortest-path tree is unique (candidate costs are accumulated with
  the exact same float operations, ``(d + w) + alpha * risk``, in path
  order); on exactly tied optima the two kernels may pick different
  parents.

Neither kernel reports the order in which it touched nodes: every
engine aggregate iterates targets in node-index order, so the kernel
choice changes an answer only where the kernels break an exact tie
differently.

``alpha == 0`` degenerates to the plain geographic Dijkstra, so shortest
-path sweeps share these kernels (and their cache) too.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import List, Optional, Sequence

import numpy as np

__all__ = ["SweepResult", "csr_sweep", "csr_sweep_batch"]

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


def csr_sweep_batch(
    indptr,
    indices,
    weights,
    entry_risk,
    sources: Sequence[int],
    alpha: float,
    delta: Optional[float] = None,
) -> List[SweepResult]:
    """Batched multi-source risk-weighted sweep (bucketed kernel).

    Runs every source in ``sources`` simultaneously under one shared
    ``alpha`` — the alpha-sharing entry point: the engine's
    :meth:`~repro.engine.engine.RoutingEngine.prefetch` (which
    ``ratios`` and provisioning batch their sweeps through) groups its
    missing sweeps per alpha and answers each large enough group with a
    single call.  State is a flat ``(len(sources) * n)`` distance
    /parent tableau; each round relaxes the out-edges of the
    whole current frontier (all sources at once) with vectorized numpy
    gather/scatter-min operations.

    The search is organised delta-stepping style: pending entries are
    processed in buckets of width ``delta`` in increasing distance.
    Within the current bucket the frontier is re-relaxed to a fixpoint
    (short edges can re-improve entries inside the bucket); entries
    improved beyond the bucket boundary wait for their bucket.  Because
    every improvement re-activates its entry, correctness does not
    depend on ``delta`` — with non-negative costs no entry can be
    improved by a later bucket, so when a bucket closes its entries hold
    their final Dijkstra distances.  ``delta`` only tunes how much work
    each vectorized step amortises; the default is the mean effective
    edge cost.

    Bit-parity contract: candidate costs are accumulated exactly as
    :func:`csr_sweep` does — ``(d + w) + alpha * risk`` per edge, in
    path order — so final distances (and parents) are bitwise identical
    to it whenever no two distinct paths tie to the last ulp.  Exact
    ties resolve deterministically (first achiever in flat CSR order)
    but may differ from the heapq tie-break.

    Returns one :class:`SweepResult` per source, in input order.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    entry_risk = np.asarray(entry_risk, dtype=np.float64)
    alpha = float(alpha)
    n = int(indptr.shape[0]) - 1
    src = np.asarray(list(sources), dtype=np.int64)
    s_count = int(src.shape[0])
    if s_count == 0:
        return []
    if np.any((src < 0) | (src >= n)):
        raise IndexError("source index out of range")

    row_counts = np.diff(indptr)
    if delta is None or delta <= 0.0:
        # A few mean edge costs per bucket keeps each vectorized step
        # large enough to amortise its numpy call overhead; correctness
        # never depends on the choice (see below).
        if weights.shape[0]:
            delta = 8.0 * float(weights.mean() + alpha * entry_risk.mean())
        else:
            delta = 1.0
        if delta <= 0.0:
            delta = 1.0

    total_cells = s_count * n
    dist = np.full(total_cells, _INF, dtype=np.float64)
    parent = np.full(total_cells, -1, dtype=np.int64)
    start = np.arange(s_count, dtype=np.int64) * n + src
    dist[start] = 0.0

    # Pending entries (flat (source, node) cells with a finite distance
    # not yet settled), maintained incrementally — the tableau is never
    # scanned.  Each outer round settles one bucket [b*delta, (b+1)*delta)
    # to a fixpoint; entries improved past the boundary wait in `carry`.
    # When a round ends, every pending cell with dist < limit has been
    # relaxed and (non-negative costs) can never improve again, so only
    # cells at or beyond the boundary carry forward.
    #
    # Scatter/gather dedup scratch: writing each winning edge's position
    # then reading it back keeps exactly one entry per cell (the last
    # writer) with no per-step sort.  Never reset: every gather reads
    # only cells the same step just wrote.
    scratch = np.empty(total_cells, dtype=np.int64)
    pending = start
    while pending.size:
        dmin = float(dist[pending].min())
        limit = (np.floor(dmin / delta) + 1.0) * delta
        frontier = pending[dist[pending] < limit]
        if frontier.size == 0:
            # Float-rounding guards: at extreme magnitudes the bucket
            # boundary can collapse onto dmin; fall back to settling
            # exactly the minimum entries (plain Dijkstra step).
            limit = dmin + delta
            frontier = pending[dist[pending] < limit]
            if frontier.size == 0:
                limit = float(np.nextafter(dmin, _INF))
                frontier = pending[dist[pending] <= dmin]
        carry = [pending[dist[pending] >= limit]]
        while frontier.size:
            us = frontier % n
            counts = row_counts[us]
            total = int(counts.sum())
            hit = None
            if total:
                cum = np.cumsum(counts)
                # One fused repeat expands every per-frontier-row value
                # to per-edge: [row start offset base, CSR row start,
                # source-row base, relaxed node, frontier distance
                # (float64 carried bit-exactly through an int64 view)].
                per_row = np.empty((5, frontier.size), dtype=np.int64)
                np.subtract(cum, counts, out=per_row[0])
                per_row[1] = indptr[us]
                np.subtract(frontier, us, out=per_row[2])
                per_row[3] = us
                per_row[4] = dist[frontier].view(np.int64)
                expanded = np.repeat(per_row, counts, axis=1)
                epos = expanded[1] + (
                    np.arange(total, dtype=np.int64) - expanded[0]
                )
                vs = indices[epos]
                # Accumulated exactly as csr_sweep does:
                # (d + w) + alpha * risk, elementwise IEEE float64.
                cand = (
                    expanded[4].view(np.float64)
                    + weights[epos]
                    + alpha * entry_risk[epos]
                )
                tgt = expanded[2] + vs
                improving = cand < dist[tgt]
                if improving.any():
                    tgt_i = tgt[improving]
                    cand_i = cand[improving]
                    np.minimum.at(dist, tgt_i, cand_i)
                    # Edges achieving the post-step minimum, reversed so
                    # that after scatter/gather dedup (last writer wins)
                    # the surviving entry per cell is the *first* in
                    # flat CSR order — the kernel's tie-break.
                    wins = cand_i == dist[tgt_i]
                    tgt_w = tgt_i[wins][::-1]
                    positions = np.arange(tgt_w.shape[0], dtype=np.int64)
                    scratch[tgt_w] = positions
                    keep = scratch[tgt_w] == positions
                    hit = tgt_w[keep]
                    parent[hit] = expanded[3][improving][wins][::-1][keep]
            if hit is None:
                break
            in_bucket = dist[hit] < limit
            carry.append(hit[~in_bucket])
            frontier = hit[in_bucket]
        pending = np.unique(np.concatenate(carry))
        # Entries improved into this bucket after being queued for a
        # later one were settled by the inner fixpoint above.
        pending = pending[dist[pending] >= limit]

    dist2 = dist.reshape(s_count, n)
    reached = np.count_nonzero(dist2 < _INF, axis=1).tolist()
    dist_rows = dist2.tolist()
    parent_rows = parent.reshape(s_count, n).tolist()
    return [
        SweepResult(int(src[i]), alpha, dist_rows[i], parent_rows[i],
                    reached[i])
        for i in range(s_count)
    ]
