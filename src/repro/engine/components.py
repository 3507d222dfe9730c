"""Sweep-derived route components and the parametric-alpha solve.

The provisioning layer (Equation 4) works on all-pairs *component*
matrices: per (source, target), the mileage sum and the risk sum of the
chosen route.  Both are recoverable from a settled sweep without
materialising per-target path objects — every settled node's components
are its parent's components plus one edge — so a whole sweep's worth of
routes collapses into one O(n) parent-tree accumulation with exactly the
float-summation order of the per-path walks it replaces.

The second half of this module is the *parametric* solve behind the
incremental edge-insertion update (DESIGN.md section 9).  A path's
risk-weighted cost ``d_P + alpha * r_P`` is linear in ``alpha``, so if
the sweeps at the two ends of an alpha interval settle the same
``(mileage, risk)`` components for a target, that component pair is
optimal for *every* alpha in between (a linear function non-negative at
both interval ends is non-negative throughout).  Recursively bisecting
the sorted per-row alphas therefore yields exact alpha_i-optimal suffix
components for all n rows with only ~(#component breakpoints x log n)
sweeps instead of n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .sweep import SweepResult

__all__ = [
    "ProvisioningStats",
    "sweep_component_arrays",
    "parametric_component_table",
]

_INF = float("inf")


@dataclass
class ProvisioningStats:
    """Work counters for one provisioning run.

    ``sweeps_avoided`` is the headline number: per committed link, a
    from-scratch rebuild would re-run one sweep per PoP, while the
    incremental update only sweeps the inserted edge's endpoints at the
    alpha breakpoints the parametric solve could not collapse.
    """

    sweeps_run: int = 0        # suffix sweeps the parametric solve probed
    sweeps_avoided: int = 0    # rebuild sweeps the updates made unnecessary
    matrix_builds: int = 0     # from-scratch _ComponentMatrices constructions
    matrix_updates: int = 0    # in-place edge-insertion updates applied
    candidates_scored: int = 0 # via-edge candidate evaluations


def sweep_component_arrays(
    sweep: SweepResult,
    csr,
    node_risk: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-target (mileage, risk) components of one settled sweep.

    Accumulates down the parent tree — ``d[j] = d[parent] + w(parent,
    j)`` — which is the same left-to-right float-summation order as the
    per-path walk in ``RoutingEngine._path_sums``, so the extracted
    components are bit-identical to the per-route materialisation.
    Each node's value is its parent's plus one edge, so the order in
    which nodes are visited (node order here) cannot change it.

    Returns ``(dist, risk, reached)``; unreached targets hold 0.0 in
    both component arrays (the historical all-pairs convention) and
    False in ``reached``.
    """
    # Plain lists in the loop (a sweep holds lists too), where numpy
    # scalar access is several times slower; converted once at the end.
    parent = sweep.parent
    sweep_dist = sweep.dist
    n = len(sweep_dist)
    dist = [0.0] * n
    risk = [0.0] * n
    reached = [False] * n
    reached[sweep.source] = True
    edge_weight = csr.edge_weight
    for start in range(n):
        if reached[start] or sweep_dist[start] == _INF:
            continue
        # Walk up to the nearest resolved ancestor, then unwind so every
        # node's components are built strictly parent-first.
        stack = []
        node = start
        while not reached[node]:
            stack.append(node)
            node = parent[node]
        while stack:
            node = stack.pop()
            p = parent[node]
            dist[node] = dist[p] + edge_weight(p, node)
            risk[node] = risk[p] + node_risk[node]
            reached[node] = True
    return (
        np.array(dist, dtype=np.float64),
        np.array(risk, dtype=np.float64),
        np.array(reached, dtype=bool),
    )


def parametric_component_table(
    engine,
    source: str,
    alphas: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Exact per-alpha component vectors from one source.

    Args:
        engine: a :class:`~repro.engine.engine.RoutingEngine`.
        source: the sweep source node name.
        alphas: *sorted, distinct* impact values, ascending.

    Returns ``(D, R, probed)`` where row ``k`` of the ``(len(alphas),
    n)`` arrays holds the alpha_k-optimal components from ``source`` to
    every node, and ``probed`` counts the distinct alphas actually
    swept.  Correctness rests on cost linearity in alpha: components
    that agree bit-for-bit at both ends of an interval are optimal
    throughout it, so only disagreeing targets recurse into the
    midpoint.
    """
    m = len(alphas)
    n = engine.node_count
    D = np.empty((m, n), dtype=np.float64)
    R = np.empty((m, n), dtype=np.float64)
    cache: dict = {}

    def comp_at(k: int):
        hit = cache.get(k)
        if hit is None:
            hit = engine.component_arrays(source, float(alphas[k]))
            cache[k] = hit
        return hit

    def solve(lo: int, hi: int, cols: np.ndarray) -> None:
        d_lo, r_lo, _ = comp_at(lo)
        d_hi, r_hi, _ = comp_at(hi)
        agree = (d_lo[cols] == d_hi[cols]) & (r_lo[cols] == r_hi[cols])
        settled = cols[agree]
        D[lo : hi + 1, settled] = d_lo[settled]
        R[lo : hi + 1, settled] = r_lo[settled]
        rest = cols[~agree]
        if rest.size == 0:
            return
        # Interval endpoints are exact at their own alpha regardless.
        D[lo, rest] = d_lo[rest]
        R[lo, rest] = r_lo[rest]
        D[hi, rest] = d_hi[rest]
        R[hi, rest] = r_hi[rest]
        if hi - lo <= 1:
            return
        mid = (lo + hi) // 2
        solve(lo, mid, rest)
        solve(mid, hi, rest)

    if m == 1:
        d, r, _ = comp_at(0)
        D[0] = d
        R[0] = r
    elif m > 1:
        solve(0, m - 1, np.arange(n))
    return D, R, len(cache)
