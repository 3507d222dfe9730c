"""Landmark (ALT) + great-circle lower bounds for targeted pair queries.

A targeted pair query wants one distance and one path out of a graph
with thousands of nodes; a plain Dijkstra settles roughly half the
graph before it reaches the target.  Goal-directed A* search with an
*admissible* heuristic settles only the nodes whose lower-bounded total
cost does not exceed the true pair distance — on continental-scale
topologies that skips most of the graph while returning exactly the
same distance.  The search itself is
:func:`~repro.engine.sweep.csr_sweep` with ``bounds=`` from
:meth:`LandmarkIndex.lower_bounds`; this module only builds the bounds.

Why lower bounds built at ``alpha == 0`` stay admissible at every alpha
----------------------------------------------------------------------

The risk-weighted relaxation cost of an edge ``(u, v)`` is::

    w_alpha(u, v) = d_uv + alpha * risk(v)     with alpha, risk >= 0

so ``w_alpha(u, v) >= d_uv = w_0(u, v)`` for every edge, and summing
along any path, ``dist_alpha(s, t) >= dist_0(s, t)``.  Any lower bound
on the *geographic* (``alpha == 0``) distance is therefore a lower
bound on the risk-weighted distance for **every** alpha — one landmark
table serves every alpha and survives every forecast swap,
because it never looks at the risk field.

Two bound families are combined (pointwise maximum; the max of lower
bounds is a lower bound):

* **Landmark (ALT) bounds.**  For a landmark ``L`` with precomputed
  geographic distances ``dG(L, .)``, the triangle inequality on the
  (undirected) graph metric gives ``dG(v, t) >= |dG(L, t) - dG(L, v)|``.
  Chaining with the alpha inequality above::

      dist_alpha(v, t) >= dG(v, t) >= |dG(L, t) - dG(L, v)|

* **Great-circle bounds.**  Link weights are great-circle miles between
  their endpoints, and great-circle distance obeys the triangle
  inequality on the sphere, so every path from ``v`` to ``t`` has
  geographic length at least ``gc(v, t)``::

      dist_alpha(v, t) >= dG(v, t) >= gc(v, t)

  (Only valid when edge weights really are great-circle miles — the
  builder/network contract.  Callers with synthetic weights simply omit
  ``latlon`` and keep the landmark bounds.)

Both families are *consistent* (monotone) as well as admissible:
``h(v) <= w_0(v, u) + h(u) <= w_alpha(v, u) + h(u)`` — the landmark
difference changes by at most ``dG(u, v) <= d_uv`` between neighbours,
and great-circle distance by at most ``gc(u, v) <= d_uv``.  With a
consistent heuristic A* never reopens a settled node and the first
settling of the target yields the exact Dijkstra distance; since ``g``
values are accumulated with the same float operations as the unbounded
search (``(g + w) + alpha * risk``), the returned distance is
*bit-identical* to the full sweep's whenever the shortest-path tree is
unique.

Unreachable nodes prune for free: in an undirected graph, if
``dG(L, v)`` is infinite but ``dG(L, t)`` is finite (or vice versa)
then ``v`` and ``t`` lie in different components and the bound is
``inf``; if both are infinite (landmark in a third component) the
``inf - inf`` indeterminate is clamped to the always-valid bound 0.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..geo.distance import great_circle_miles
from .sweep import csr_sweep_batch

__all__ = ["LandmarkIndex"]

class LandmarkIndex:
    """Per-topology ALT tables plus optional coordinates.

    Construction is risk-independent (``alpha == 0`` sweeps only), so
    one index outlives every forecast swap on its topology.

    Attributes:
        landmarks: chosen landmark node indices, in selection order.
        table: ``(k, n)`` geographic distances ``dG(L_i, v)`` (``inf``
            where a landmark's component does not cover ``v``).
        latlon: optional ``(n, 2)`` degree coordinates enabling the
            great-circle bound family.
    """

    def __init__(
        self,
        landmarks: Sequence[int],
        table: np.ndarray,
        latlon: Optional[np.ndarray] = None,
    ) -> None:
        self.landmarks = np.asarray(list(landmarks), dtype=np.int64)
        self.table = np.asarray(table, dtype=np.float64)
        if self.table.ndim != 2 or self.table.shape[0] != len(self.landmarks):
            raise ValueError("table must be (len(landmarks), n)")
        self.latlon = (
            None if latlon is None else np.asarray(latlon, dtype=np.float64)
        )
        if self.latlon is not None and (
            self.latlon.ndim != 2
            or self.latlon.shape != (self.table.shape[1], 2)
        ):
            raise ValueError("latlon must be (n, 2) degrees")

    @classmethod
    def build(
        cls,
        indptr,
        indices,
        weights,
        k: int = 8,
        latlon: Optional[np.ndarray] = None,
    ) -> "LandmarkIndex":
        """Select ``k`` landmarks and sweep their geographic distances.

        Selection is greedy farthest-point: well-spread landmarks give
        tight ``|dG(L, t) - dG(L, v)|`` bounds for pairs across the
        spread.  With coordinates the spread is computed on great-circle
        distance (no sweeps needed to choose); otherwise on graph
        distance with one sweep per landmark.  Either way the final
        table comes from one batched ``alpha == 0``
        :func:`~repro.engine.sweep.csr_sweep_batch` call, and the first
        landmark is the node farthest from the centroid (coordinates)
        or node 0 (bare arrays) — fully deterministic.
        """
        indptr = np.asarray(indptr, dtype=np.int64)
        n = int(indptr.shape[0]) - 1
        if n == 0:
            raise ValueError("cannot build landmarks over an empty graph")
        k = max(1, min(int(k), n))
        zero_risk = np.zeros(
            np.asarray(indices, dtype=np.int64).shape[0], dtype=np.float64
        )
        if latlon is not None:
            latlon = np.asarray(latlon, dtype=np.float64)
            centroid_dist = np.linalg.norm(
                latlon - latlon.mean(axis=0), axis=1
            )
            chosen = [int(np.argmax(centroid_dist))]
            # Incremental farthest-point: one O(n) great-circle row per
            # landmark, never the O(n^2) matrix.
            nearest = great_circle_miles(latlon, latlon[chosen[0], None])[:, 0]
            while len(chosen) < k:
                nxt = int(np.argmax(nearest))
                if nearest[nxt] <= 0.0:
                    break  # every node coincides with a landmark
                chosen.append(nxt)
                gc = great_circle_miles(latlon, latlon[nxt, None])[:, 0]
                np.minimum(nearest, gc, out=nearest)
            sweeps = csr_sweep_batch(
                indptr, indices, weights, zero_risk, chosen, 0.0
            )
            table = np.vstack([np.asarray(s.dist) for s in sweeps])
            return cls(chosen, table, latlon)
        chosen = [0]
        rows: List[np.ndarray] = [
            np.asarray(
                csr_sweep_batch(
                    indptr, indices, weights, zero_risk, [0], 0.0
                )[0].dist
            )
        ]
        nearest = rows[0].copy()
        while len(chosen) < k:
            finite = np.isfinite(nearest)
            # Unreached nodes (other components) make ideal landmarks:
            # they give their whole component a table row.
            if not finite.all():
                nxt = int(np.argmin(finite))
            else:
                nxt = int(np.argmax(nearest))
                if nearest[nxt] <= 0.0:
                    break
            chosen.append(nxt)
            row = np.asarray(
                csr_sweep_batch(
                    indptr, indices, weights, zero_risk, [nxt], 0.0
                )[0].dist
            )
            rows.append(row)
            np.minimum(nearest, row, out=nearest)
        return cls(chosen, np.vstack(rows), None)

    @property
    def k(self) -> int:
        """Number of landmarks."""
        return int(self.landmarks.shape[0])

    @property
    def node_count(self) -> int:
        """Number of nodes covered."""
        return int(self.table.shape[1])

    def lower_bounds(self, target: int) -> np.ndarray:
        """Admissible per-node lower bounds on ``dist_alpha(v, target)``.

        ``h[v] = max(gc(v, t), max_L |dG(L, t) - dG(L, v)|)`` — see the
        module docstring for the admissibility and consistency proofs.
        ``h[v] == inf`` exactly when ``v`` provably cannot reach the
        target (different components).
        """
        with np.errstate(invalid="ignore"):
            diff = np.abs(self.table - self.table[:, target : target + 1])
        # inf - inf (landmark sees neither endpoint) is indeterminate —
        # clamp to the always-valid bound 0 instead of letting NaN
        # poison the max.  Genuine inf bounds (provably disconnected)
        # must survive, so only NaN is replaced.
        np.nan_to_num(diff, copy=False, nan=0.0, posinf=np.inf)
        h = diff.max(axis=0) if self.k else np.zeros(self.node_count)
        if self.latlon is not None:
            gc = great_circle_miles(self.latlon, self.latlon[target, None])
            np.maximum(h, gc[:, 0], out=h)
        return h
