"""Gaussian kernel density estimation over geographic events (Equation 2).

The paper estimates the probability of a disaster at a location ``y`` from
historical events ``x_1..x_N`` as

    p(y) = (1 / (sigma N)) * sum_i K((x_i - y) / sigma)

with a Gaussian kernel.  Working directly in latitude/longitude degrees
would distort distances with latitude, so we evaluate the kernel on
great-circle distance in miles: the bandwidth ``sigma`` is expressed in
miles, matching the scale of the trained values in Table 1.

Truncated, cell-binned evaluation
---------------------------------

A dense evaluation is O(M x N): every query point against every event —
41M haversine/exp pairs for one Level3 sweep over the full five-class
corpus.  Almost all of that work is spent on kernel values that are
indistinguishable from zero: at ``cutoff_sigmas = 8`` standard
deviations the Gaussian has decayed to ``exp(-32) < 1.3e-14`` of its
peak.  The default evaluation path therefore

* snaps every event into a uniform 3-D bucket grid over the unit sphere
  (cell edge = the chord length of the cutoff radius, so any event
  within the cutoff of a query lies in the query cell's 3x3x3
  neighborhood — no latitude or antimeridian special cases), and
* evaluates each query chunk against only the events gathered from the
  neighboring buckets, in ascending event order.

**Error bound.**  The truncated density can only *undercount*, by the
kernels of events farther than ``c = cutoff_sigmas`` deviations.  Each
dropped event contributes less than ``exp(-c^2/2)`` before
normalisation, and the normaliser carries a ``1/N``, so

    |density_truncated(y) - density_exact(y)| <= exp(-c^2/2) / (2 pi sigma^2)

independently of the catalog size.  At the default ``c = 8`` that is
``1.3e-14 / (2 pi sigma^2)`` per square mile — more than five orders of
magnitude below the 1e-9 relative agreement the benchmarks pin in dense
regions.  Pass ``cutoff_sigmas=None`` for the exact dense path.

**Log densities** are used for held-out likelihood scoring, where the
exponentially small tails *matter* (a 1e-300 floor and a dropped
``exp(-40)`` kernel give wildly different scores).  The log path
therefore widens the truncation to :data:`UNDERFLOW_SIGMAS` (~38.6
deviations), beyond which ``exp`` underflows to an exact float zero:
the events it skips contribute literal ``0.0`` terms to the dense sum,
so truncation there is lossless, not approximate.

**Memo.**  ``density_array`` and ``evaluate_grid`` sweep the kernels
on every call.  The content :attr:`GaussianKDE.fingerprint` keys the
memo in front of them: :class:`~repro.risk.historical.HistoricalRiskModel`
keeps the ``o_h`` vectors it computed, in process.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geo.coords import GeoPoint
from ..geo.distance import EARTH_RADIUS_MILES, great_circle_miles
from ..geo.grid import GeoGrid, GridField

__all__ = [
    "GaussianKDE",
    "points_to_array",
    "DEFAULT_CUTOFF_SIGMAS",
    "UNDERFLOW_SIGMAS",
]

#: Default kernel truncation radius in standard deviations.  At 8
#: deviations the dropped tail is bounded by exp(-32)/(2 pi sigma^2)
#: (see the module docstring), far below every tolerance in the suite.
DEFAULT_CUTOFF_SIGMAS = 8.0

#: Beyond this many deviations ``exp(-d^2 / 2 sigma^2)`` underflows to
#: an exact float64 zero (exp(x) == 0.0 for x < -745.14), so truncating
#: there drops only terms that are identically 0.0 in the dense sum.
UNDERFLOW_SIGMAS = 38.7

#: Work-matrix budget: a (queries x events) chunk is kept under ~8M
#: doubles so huge catalogs (the 143k-event wind class) stay in memory.
_WORK_BUDGET = 8_000_000

#: Most query rows evaluated per chunk; ``_WORK_BUDGET`` lowers it for
#: large catalogs.
_CHUNK_ROWS = 2048


def points_to_array(points: Sequence[GeoPoint]) -> "np.ndarray":
    """Convert GeoPoints to an (N, 2) float array of (lat, lon) degrees."""
    if not points:
        return np.zeros((0, 2), dtype=np.float64)
    return np.array([(p.lat, p.lon) for p in points], dtype=np.float64)


def _unit_xyz(latlon_deg: "np.ndarray") -> "np.ndarray":
    """(M, 3) unit-sphere embedding of (lat, lon) degree rows."""
    rad = np.radians(latlon_deg)
    cos_lat = np.cos(rad[:, 0])
    return np.column_stack(
        [
            cos_lat * np.cos(rad[:, 1]),
            cos_lat * np.sin(rad[:, 1]),
            np.sin(rad[:, 0]),
        ]
    )


def _chord_of_miles(distance_miles: float) -> float:
    """Unit-sphere chord length subtending a great-circle distance.

    Distances at or beyond half the circumference cover the whole
    sphere; the chord saturates at the diameter (2.0).
    """
    half_circumference = math.pi * EARTH_RADIUS_MILES
    if distance_miles >= half_circumference:
        return 2.0
    return 2.0 * math.sin(distance_miles / (2.0 * EARTH_RADIUS_MILES))


class _BucketIndex:
    """Events binned into a uniform 3-D grid over the unit sphere.

    Cells are cubes of edge ``cell`` in the sphere's embedding space, so
    two points whose chord distance is at most ``k * cell`` differ by at
    most ``k`` per axis index: a radius-``r`` query only has to gather
    the ``(2k+1)^3`` neighboring buckets with ``k = ceil(chord(r) /
    cell)``.  Bucket arrays hold ascending event indices, and gathered
    candidate sets are re-sorted, so truncated kernel sums visit events
    in the same order as the dense path.
    """

    def __init__(self, xyz: "np.ndarray", cell: float) -> None:
        self.cell = float(cell)
        self.n_events = xyz.shape[0]
        cells = np.floor(xyz / self.cell).astype(np.int64)
        # Stable lexsort keeps ascending event order within each bucket.
        order = np.lexsort((cells[:, 2], cells[:, 1], cells[:, 0]))
        sorted_cells = cells[order]
        boundaries = np.flatnonzero(
            np.any(np.diff(sorted_cells, axis=0), axis=1)
        )
        starts = np.concatenate(([0], boundaries + 1))
        ends = np.concatenate((boundaries + 1, [len(order)]))
        self._buckets = {
            tuple(sorted_cells[s]): order[s:e] for s, e in zip(starts, ends)
        }

    def __len__(self) -> int:
        return len(self._buckets)

    def cell_keys(self, xyz: "np.ndarray") -> "np.ndarray":
        """(M, 3) integer cell coordinates for query embeddings."""
        return np.floor(xyz / self.cell).astype(np.int64)

    # -- in-place patching (streaming ingest) ------------------------------
    #
    # Cells are independent sums, so appending K events only has to
    # touch the buckets those K events live in.  The patch preserves the
    # ascending-index invariant the truncated kernel path relies on, so
    # a patched index gathers candidates in exactly the order a
    # from-scratch index over the same event array would.

    def add_events(self, xyz: "np.ndarray") -> None:
        """Bin K new events, assigned indices ``n_events..n_events+K-1``.

        New indices are larger than every existing one and are appended
        in ascending order, so bucket arrays stay sorted.
        """
        start = self.n_events
        cells = np.floor(xyz / self.cell).astype(np.int64)
        for offset in range(cells.shape[0]):
            key = (
                int(cells[offset, 0]),
                int(cells[offset, 1]),
                int(cells[offset, 2]),
            )
            index = np.int64(start + offset)
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = np.array([index], dtype=np.int64)
            else:
                self._buckets[key] = np.append(bucket, index)
        self.n_events += cells.shape[0]

    def candidates(self, key: Tuple[int, int, int], reach: int) -> "np.ndarray":
        """Ascending event indices within ``reach`` cells of ``key``.

        When the scan volume exceeds the number of occupied buckets the
        loop flips to iterating occupied buckets instead, so huge reach
        values (the log path's underflow cutoff) degrade to "all
        events" rather than an empty (2k+1)^3 sweep.
        """
        parts: List["np.ndarray"] = []
        if (2 * reach + 1) ** 3 >= len(self._buckets):
            i, j, k = key
            for cell_key, bucket in self._buckets.items():
                if (
                    abs(cell_key[0] - i) <= reach
                    and abs(cell_key[1] - j) <= reach
                    and abs(cell_key[2] - k) <= reach
                ):
                    parts.append(bucket)
        else:
            i, j, k = key
            buckets = self._buckets
            for di in range(-reach, reach + 1):
                for dj in range(-reach, reach + 1):
                    for dk in range(-reach, reach + 1):
                        bucket = buckets.get((i + di, j + dj, k + dk))
                        if bucket is not None:
                            parts.append(bucket)
        if not parts:
            return np.empty(0, dtype=np.int64)
        if len(parts) == 1:
            return parts[0]
        return np.sort(np.concatenate(parts))


class GaussianKDE:
    """A 2-D Gaussian kernel density estimate over geographic points.

    Args:
        latlon_deg: the observed event locations, an (N, 2) array of
            (lat, lon) degree rows (at least one; see
            :func:`points_to_array` for a ``GeoPoint`` sequence).
        bandwidth_miles: the kernel bandwidth ``sigma`` in miles.
        cutoff_sigmas: kernel truncation radius in standard deviations
            (see the module docstring for the error bound); ``None``
            selects the exact dense path.

    Densities are per square mile, normalised in the flat-Earth (local
    tangent plane) approximation — exact enough at continental scale for
    the relative comparisons the framework makes.
    """

    def __init__(
        self,
        latlon_deg: "np.ndarray",
        bandwidth_miles: float,
        cutoff_sigmas: Optional[float] = DEFAULT_CUTOFF_SIGMAS,
    ) -> None:
        events = np.asarray(latlon_deg, dtype=np.float64)
        if events.ndim != 2 or events.shape[1] != 2:
            raise ValueError("expected an (N, 2) array of (lat, lon)")
        if events.shape[0] == 0:
            raise ValueError("KDE requires at least one event")
        if not math.isfinite(bandwidth_miles) or bandwidth_miles <= 0:
            raise ValueError(
                f"bandwidth_miles must be positive, got {bandwidth_miles!r}"
            )
        if cutoff_sigmas is not None and (
            not math.isfinite(cutoff_sigmas) or cutoff_sigmas <= 0
        ):
            raise ValueError(
                f"cutoff_sigmas must be positive or None, got {cutoff_sigmas!r}"
            )
        self._events = events
        self.bandwidth_miles = float(bandwidth_miles)
        self.cutoff_sigmas = (
            None if cutoff_sigmas is None else float(cutoff_sigmas)
        )
        self._index: Optional[_BucketIndex] = None
        self._resize()

    def _resize(self) -> None:
        """Recompute the state that depends on the event count.

        Chunk rows, the normaliser and the lazily built fingerprint all
        depend on N.  A streaming patch calls this again, so its state
        matches a fresh build over the same events exactly.
        """
        n = self._events.shape[0]
        self._chunk_size = max(1, min(_CHUNK_ROWS, _WORK_BUDGET // n))
        # Normalisation of a 2-D Gaussian: 1 / (2 pi sigma^2 N).
        self._norm = 1.0 / (2.0 * math.pi * self.bandwidth_miles**2 * n)
        self._fingerprint: Optional[str] = None

    # -- identity ----------------------------------------------------------

    @property
    def n_events(self) -> int:
        """Number of events backing the estimate."""
        return self._events.shape[0]

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the estimate: events x bandwidth x
        truncation.  Keys the historical model's in-process ``o_h``
        memo."""
        if self._fingerprint is None:
            # Lazy: repro.engine pulls in the risk layer at package
            # import, which imports this module.
            from ..engine.fingerprint import (
                array_fingerprint,
                combine_fingerprints,
            )

            self._fingerprint = combine_fingerprints(
                [
                    "kde:v1",
                    array_fingerprint(self._events),
                    float(self.bandwidth_miles).hex(),
                    "exact"
                    if self.cutoff_sigmas is None
                    else float(self.cutoff_sigmas).hex(),
                ]
            )
        return self._fingerprint

    # -- evaluation --------------------------------------------------------

    def density(self, point: GeoPoint) -> float:
        """Estimated density (per square mile) at a single point."""
        return float(self.density_array(np.array([[point.lat, point.lon]]))[0])

    def density_array(self, latlon_deg: "np.ndarray") -> "np.ndarray":
        """Estimated density at each row of an (M, 2) (lat, lon) array."""
        latlon_deg = np.asarray(latlon_deg, dtype=np.float64)
        if latlon_deg.ndim != 2 or latlon_deg.shape[1] != 2:
            raise ValueError("expected an (M, 2) array of (lat, lon)")
        return self._kernel_sums(latlon_deg, self.cutoff_sigmas) * self._norm

    def log_density_many(self, points: Sequence[GeoPoint]) -> "np.ndarray":
        """Natural log of the density at each point, floored to avoid -inf.

        Densities below 1e-300 are floored so held-out log-likelihood
        scoring stays finite for points far from every training event.
        The truncation radius is widened to :data:`UNDERFLOW_SIGMAS`
        here, where dropped kernels are exact float zeros — log scores
        match the dense path bit-for-float-sum.
        """
        if not points:
            return np.zeros(0, dtype=np.float64)
        latlon = points_to_array(points)
        sums = self._kernel_sums(latlon, self._log_cutoff())
        return np.log(np.maximum(sums * self._norm, 1e-300))

    def holdout_log_density(
        self, heldout_indices: "np.ndarray"
    ) -> "np.ndarray":
        """Log density at the held-out events under the complement fit.

        This is the cross-validation kernel of Table 1: the held-out
        fold is scored against a KDE over every *other* event, without
        rebuilding a KDE (or its bucket index) per fold — the shared
        index is queried with the held-out rows masked out.

        Raises:
            ValueError: when the held-out set leaves no training events.
        """
        heldout = np.asarray(heldout_indices, dtype=np.int64)
        n_train = self.n_events - heldout.shape[0]
        if n_train < 1:
            raise ValueError("held-out set leaves no training events")
        exclude = np.zeros(self.n_events, dtype=bool)
        exclude[heldout] = True
        sums = self._kernel_sums(
            self._events[heldout], self._log_cutoff(), exclude=exclude
        )
        norm = 1.0 / (2.0 * math.pi * self.bandwidth_miles**2 * n_train)
        return np.log(np.maximum(sums * norm, 1e-300))

    def evaluate_grid(self, grid: GeoGrid) -> GridField:
        """Evaluate the density at every cell centre of ``grid``.

        This is the computation behind the likelihood maps in Figure 4.
        """
        values = self.density_array(grid.centers_array())
        return GridField(grid, values.reshape(grid.shape))

    # -- kernel machinery --------------------------------------------------

    def _log_cutoff(self) -> Optional[float]:
        if self.cutoff_sigmas is None:
            return None
        return max(self.cutoff_sigmas, UNDERFLOW_SIGMAS)

    def _get_index(self) -> _BucketIndex:
        if self._index is None:
            assert self.cutoff_sigmas is not None
            radius = self.cutoff_sigmas * self.bandwidth_miles
            cell = max(_chord_of_miles(radius), 1e-12)
            self._index = _BucketIndex(_unit_xyz(self._events), cell)
        return self._index

    def _kernel_sums(
        self,
        latlon_deg: "np.ndarray",
        cutoff_sigmas: Optional[float],
        exclude: Optional["np.ndarray"] = None,
    ) -> "np.ndarray":
        """Sum of unnormalised kernels at each query row.

        ``exclude`` is an optional length-N boolean mask of events to
        leave out (cross-validation holds folds out this way).
        """
        if latlon_deg.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        if cutoff_sigmas is None:
            return self._dense_sums(latlon_deg, exclude)
        return self._truncated_sums(latlon_deg, cutoff_sigmas, exclude)

    def _dense_sums(
        self, latlon_deg: "np.ndarray", exclude: Optional["np.ndarray"]
    ) -> "np.ndarray":
        events = self._events if exclude is None else self._events[~exclude]
        if events.shape[0] == 0:
            return np.zeros(latlon_deg.shape[0], dtype=np.float64)
        out = np.empty(latlon_deg.shape[0], dtype=np.float64)
        inv_two_sigma_sq = 1.0 / (2.0 * self.bandwidth_miles**2)
        chunk_rows = max(1, _WORK_BUDGET // events.shape[0])
        chunk_rows = min(chunk_rows, self._chunk_size)
        for start in range(0, latlon_deg.shape[0], chunk_rows):
            chunk = latlon_deg[start : start + chunk_rows]
            dist = great_circle_miles(chunk, events)
            kernel = np.exp(-(dist**2) * inv_two_sigma_sq)
            out[start : start + chunk.shape[0]] = kernel.sum(axis=1)
        return out

    def _truncated_sums(
        self,
        latlon_deg: "np.ndarray",
        cutoff_sigmas: float,
        exclude: Optional["np.ndarray"],
    ) -> "np.ndarray":
        index = self._get_index()
        radius = cutoff_sigmas * self.bandwidth_miles
        reach = max(
            1, int(math.ceil(_chord_of_miles(radius) / index.cell))
        )
        qxyz = _unit_xyz(latlon_deg)
        keys = index.cell_keys(qxyz)
        out = np.zeros(latlon_deg.shape[0], dtype=np.float64)
        inv_two_sigma_sq = 1.0 / (2.0 * self.bandwidth_miles**2)

        # Group queries sharing a cell: one candidate gather per group.
        order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
        sorted_keys = keys[order]
        boundaries = np.flatnonzero(
            np.any(np.diff(sorted_keys, axis=0), axis=1)
        )
        starts = np.concatenate(([0], boundaries + 1))
        ends = np.concatenate((boundaries + 1, [len(order)]))
        for s, e in zip(starts, ends):
            query_rows = order[s:e]
            cand = index.candidates(tuple(sorted_keys[s]), reach)
            if exclude is not None and cand.size:
                cand = cand[~exclude[cand]]
            if cand.size == 0:
                continue  # out already zero
            events = self._events[cand]
            chunk_rows = max(1, _WORK_BUDGET // cand.size)
            chunk_rows = min(chunk_rows, self._chunk_size)
            for start in range(0, query_rows.shape[0], chunk_rows):
                rows = query_rows[start : start + chunk_rows]
                dist = great_circle_miles(latlon_deg[rows], events)
                kernel = np.exp(-(dist**2) * inv_two_sigma_sq)
                out[rows] = kernel.sum(axis=1)
        return out
