"""Incrementally-updatable KDE for streaming event ingestion.

A :class:`~repro.stats.kde.GaussianKDE` is immutable: appending one
event to a 143k-event class means rebuilding the bucket index and
re-sweeping every query point.  But the truncated evaluation path is a
sum over *independent* cells — an appended event can only
change kernel sums at query points whose bucket neighborhood contains
the event's cell.  :class:`StreamingKDE` exploits that:

* ``append_events`` patches the
  :class:`~repro.stats.kde._BucketIndex` buckets in place (cells are
  independent, and the patch preserves the ascending-index gather
  order), and
* *tracked* query-point sets (a network's PoP coordinate array) keep
  their unnormalised kernel-sum vectors resident, so an update only
  recomputes the rows inside the delta's dirty-cell neighborhood.

Only the per-PoP ``o_h`` vectors an ingest re-evaluates ride the
tracked sums.  A grid field (Figure 4) goes through the inherited
:meth:`~repro.stats.kde.GaussianKDE.evaluate_grid`: a full sweep over
the current events, bit for bit what a fresh ``GaussianKDE`` returns.

Parity contract — **bitwise**, not approximate
----------------------------------------------

The per-row kernel sum in ``_truncated_sums`` is ``kernel.sum(axis=1)``
over candidates gathered from the row's cell neighborhood in ascending
event order; it does not depend on which other rows share the chunk.
A row is *dirty* exactly when its cell key lies within Chebyshev
``reach`` of a delta event's cell key — precisely the candidate-gather
criterion — so a clean row's candidate set (as coordinate values, in
order) is unchanged by the patch and its sum is bitwise unchanged.
Dirty rows are recomputed through the ordinary ``_truncated_sums``
machinery against the patched index, whose buckets match a
from-scratch index over the grown event array.  Densities are
always produced as ``sums * norm`` with the normaliser recomputed for
the new event count, so every tracked density equals a full
``GaussianKDE`` rebuild **bit for bit** — the full-rebuild path stays
the parity oracle, not an approximation target.

Kernel sums are stored rather than densities because the normaliser
``1 / (2 pi sigma^2 N)`` changes with every append: patching
densities in place would need a global rescale (one rounding per cell);
sums are invariant for clean rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

import numpy as np

from .kde import GaussianKDE, _chord_of_miles, _unit_xyz

__all__ = ["StreamingKDE", "KdeDelta"]

#: Tracked point-set bound: each entry holds the point array plus one
#: float per row (a Level3 PoP set is about 6KB).
_TRACKED_LIMIT = 8

_CellKey = Tuple[int, int, int]


@dataclass(frozen=True)
class KdeDelta:
    """One append patch: what changed, and where it can matter.

    ``hot_cells`` is the union of the delta events' bucket cells
    expanded by the gather ``reach`` — a query point's kernel sum can
    have changed iff its own cell key is in this set.
    """

    parent_fingerprint: str
    fingerprint: str
    appended: int
    cell: float
    reach: int
    hot_cells: FrozenSet[_CellKey] = field(default_factory=frozenset)

    def dirty_mask(self, latlon_deg: "np.ndarray") -> "np.ndarray":
        """Boolean mask of (lat, lon) rows whose kernel sums may differ."""
        latlon_deg = np.asarray(latlon_deg, dtype=np.float64)
        out = np.zeros(latlon_deg.shape[0], dtype=bool)
        if not self.hot_cells or latlon_deg.shape[0] == 0:
            return out
        keys = np.floor(_unit_xyz(latlon_deg) / self.cell).astype(np.int64)
        hot = self.hot_cells
        for row in range(keys.shape[0]):
            key = (int(keys[row, 0]), int(keys[row, 1]), int(keys[row, 2]))
            if key in hot:
                out[row] = True
        return out


class _TrackedPoints:
    """A registered query-point set with resident kernel sums."""

    __slots__ = ("latlon", "sums")

    def __init__(self, latlon: "np.ndarray", sums: "np.ndarray") -> None:
        self.latlon = latlon
        self.sums = sums


class StreamingKDE(GaussianKDE):
    """A :class:`GaussianKDE` whose event set can be patched in place.

    Always on the truncated path at the default cutoff: the exact dense
    path has no cell structure to localise updates in.  All evaluation
    methods are inherited and stay bitwise-identical to a fresh
    ``GaussianKDE`` over the current event array; so does
    :attr:`fingerprint`, which is what keeps fingerprint-keyed caches
    consistent across the streaming and rebuild paths.
    """

    def __init__(
        self, latlon_deg: "np.ndarray", bandwidth_miles: float
    ) -> None:
        super().__init__(latlon_deg, bandwidth_miles)
        self._tracked: Dict[str, _TrackedPoints] = {}

    # -- geometry ----------------------------------------------------------

    def _cell_edge(self) -> float:
        radius = self.cutoff_sigmas * self.bandwidth_miles
        return max(_chord_of_miles(radius), 1e-12)

    def _reach(self) -> int:
        radius = self.cutoff_sigmas * self.bandwidth_miles
        return max(
            1, int(math.ceil(_chord_of_miles(radius) / self._cell_edge()))
        )

    def _hot_cells(self, latlon_deg: "np.ndarray") -> FrozenSet[_CellKey]:
        """Delta-event cells expanded by the gather reach."""
        cell = self._cell_edge()
        reach = self._reach()
        keys = np.floor(_unit_xyz(latlon_deg) / cell).astype(np.int64)
        hot = set()
        for row in range(keys.shape[0]):
            i = int(keys[row, 0])
            j = int(keys[row, 1])
            k = int(keys[row, 2])
            for di in range(-reach, reach + 1):
                for dj in range(-reach, reach + 1):
                    for dk in range(-reach, reach + 1):
                        hot.add((i + di, j + dj, k + dk))
        return frozenset(hot)

    # -- streaming updates -------------------------------------------------

    def append_events(self, latlon_deg: "np.ndarray") -> KdeDelta:
        """Add K events; O(K) index patch + O(dirty rows) recompute.

        Returns the :class:`KdeDelta` describing the patch (a no-op
        delta for an empty batch).
        """
        latlon = np.asarray(latlon_deg, dtype=np.float64)
        if latlon.ndim != 2 or latlon.shape[1] != 2:
            raise ValueError("expected a (K, 2) array of (lat, lon)")
        parent = self.fingerprint
        if latlon.shape[0] == 0:
            return self._noop_delta(parent)
        if self._index is not None:
            self._index.add_events(_unit_xyz(latlon))
        self._events = np.concatenate([self._events, latlon], axis=0)
        self._resize()
        delta = KdeDelta(
            parent_fingerprint=parent,
            fingerprint=self.fingerprint,
            appended=latlon.shape[0],
            cell=self._cell_edge(),
            reach=self._reach(),
            hot_cells=self._hot_cells(latlon),
        )
        self._patch_tracked(delta)
        return delta

    def _noop_delta(self, fingerprint: str) -> KdeDelta:
        return KdeDelta(
            parent_fingerprint=fingerprint,
            fingerprint=fingerprint,
            appended=0,
            cell=self._cell_edge(),
            reach=self._reach(),
        )

    # -- tracked point sets ------------------------------------------------

    def _track(self, latlon_deg: "np.ndarray") -> _TrackedPoints:
        from ..engine.fingerprint import array_fingerprint

        key = array_fingerprint(latlon_deg)
        tracked = self._tracked.get(key)
        if tracked is None:
            latlon = np.ascontiguousarray(latlon_deg, dtype=np.float64)
            sums = self._kernel_sums(latlon, self.cutoff_sigmas)
            tracked = _TrackedPoints(latlon, sums)
            if len(self._tracked) >= _TRACKED_LIMIT:
                self._tracked.pop(next(iter(self._tracked)))
            self._tracked[key] = tracked
        return tracked

    def tracked_density(self, latlon_deg: "np.ndarray") -> "np.ndarray":
        """``density_array`` through the resident kernel sums.

        First call for a point set pays the full sweep; every later
        call — including after append patches — is O(dirty
        rows).  Bitwise equal to :meth:`density_array`.
        """
        latlon_deg = np.asarray(latlon_deg, dtype=np.float64)
        if latlon_deg.ndim != 2 or latlon_deg.shape[1] != 2:
            raise ValueError("expected an (M, 2) array of (lat, lon)")
        return self._track(latlon_deg).sums * self._norm

    def _patch_tracked(self, delta: KdeDelta) -> None:
        for tracked in self._tracked.values():
            mask = delta.dirty_mask(tracked.latlon)
            if not mask.any():
                continue
            rows = np.flatnonzero(mask)
            tracked.sums[rows] = self._truncated_sums(
                tracked.latlon[rows], self.cutoff_sigmas, None
            )
