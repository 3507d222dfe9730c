"""Streaming historical risk: live event ingest with O(touched) updates.

:class:`StreamingHistoricalModel` is a
:class:`~repro.risk.historical.HistoricalRiskModel` whose per-class
estimates are :class:`~repro.stats.streaming.StreamingKDE` instances
built from full catalogs.  Every event is keyed by its class, year and
the exact bits of its coordinates
(:attr:`~repro.disasters.events.DisasterEvent.identity`).  The archive's
keys are kept as sorted int64 columns per class (24 bytes an event) and
searched once per class and batch; keys that ingest appends are kept in
a set.  New disaster records are folded in with :meth:`ingest`:

* records whose key is already present are **dropped as
  duplicates** (at-least-once delivery upstream is safe),
* fresh records are appended into the per-class KDEs — an O(K) bucket
  patch plus a recompute of only the query rows near the new events.

Parity: every density evaluated through the tracked-point path is
bitwise identical to a from-scratch ``GaussianKDE`` rebuild over the
same events (see :mod:`repro.stats.streaming`), so ``pop_risks``
and the model :attr:`fingerprint` are exactly what a cold process would
compute — streaming never forks the memo-key space.  A PoP outside the
truncation reach of every event of the touched classes has kernel sum
exactly ``0.0`` there before and after the patch, so its ``o_h`` is
bitwise unchanged: only the rows near the new events are recomputed.

``pop_risks`` goes through the base model's memo, keyed by the new
fingerprint: after an ingest the first lookup misses and evaluates
``o_h`` through the tracked sums
(:meth:`StreamingHistoricalModel.risks_array`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..disasters.catalog import PRETRAINED_BANDWIDTHS, catalog_of
from ..disasters.events import (
    DisasterCatalog,
    DisasterEvent,
    EventKey,
    EventType,
)
from ..stats.kde import points_to_array
from ..stats.streaming import StreamingKDE
from .historical import RISK_UNIT_MILES, HistoricalRiskModel

__all__ = ["StreamingHistoricalModel", "IngestDelta", "default_streaming_model"]


@dataclass(frozen=True)
class IngestDelta:
    """Outcome of one :meth:`StreamingHistoricalModel.ingest` call."""

    parent_fingerprint: str
    fingerprint: str
    appended: int
    duplicates: int
    touched_types: Tuple[str, ...]

    @property
    def changed(self) -> bool:
        """False when the batch was entirely duplicates."""
        return self.fingerprint != self.parent_fingerprint

    def as_dict(self) -> dict:
        """Wire-friendly summary (the server's ``ingest`` reply body)."""
        return {
            "appended": self.appended,
            "duplicates": self.duplicates,
            "touched_types": list(self.touched_types),
            "changed": self.changed,
        }


class _ArchiveKeys:
    """One catalog's dedup keys as int64 columns sorted by lat bits.

    Row ``i`` holds the year, lat bits and lon bits of one event (24
    bytes).  A lookup finds each query's run of equal lat bits with
    :func:`numpy.searchsorted` and compares year and lon bits on every
    row of that run, so equality is decided on the full key.
    """

    def __init__(self, catalog: DisasterCatalog) -> None:
        lat = catalog.lat.view(np.int64)
        order = np.argsort(lat)
        self.lat = lat[order]
        self.lon = catalog.lon.view(np.int64)[order]
        self.year = catalog.year[order]

    def contains(self, year, lat, lon) -> "np.ndarray":
        """A bool mask: which query keys (int64 columns) are rows here."""
        first = np.searchsorted(self.lat, lat, side="left")
        runs = np.searchsorted(self.lat, lat, side="right") - first
        # One slot per (query, row of its run): the query's index and
        # the row it is compared with.
        query = np.repeat(np.arange(len(lat)), runs)
        rows = np.arange(query.size) + np.repeat(
            first - (np.cumsum(runs) - runs), runs
        )
        hit = (self.year[rows] == year[query]) & (self.lon[rows] == lon[query])
        found = np.zeros(len(lat), dtype=bool)
        found[query[hit]] = True
        return found


class StreamingHistoricalModel(HistoricalRiskModel):
    """A historical risk model that accepts live event ingest.

    Every class weighs equally, as in the default corpus model.

    Args:
        catalogs: event-class -> full :class:`DisasterCatalog` of that
            class (its keys are kept as sorted columns for duplicate
            detection).
        bandwidths: per-class kernel bandwidth in miles; defaults to
            the pretrained Table 1 values.
    """

    def __init__(
        self,
        catalogs: Mapping[str, DisasterCatalog],
        bandwidths: Optional[Mapping[str, float]] = None,
    ) -> None:
        if not catalogs:
            raise ValueError("need at least one event-class catalog")
        self._archive: Dict[str, _ArchiveKeys] = {}
        # Keys appended by ingest; they grow only with what is sent.
        self._ingested: Set[EventKey] = set()
        kdes: Dict[str, StreamingKDE] = {}
        for event_type, catalog in catalogs.items():
            if not len(catalog):
                raise ValueError(f"empty catalog for {event_type!r}")
            bandwidth = (
                PRETRAINED_BANDWIDTHS[event_type]
                if bandwidths is None
                else float(bandwidths[event_type])
            )
            kdes[event_type] = StreamingKDE(catalog.latlon(), bandwidth)
            self._archive[event_type] = _ArchiveKeys(catalog)
        super().__init__(kdes)

    # -- ingest ------------------------------------------------------------

    def ingest(self, events: Sequence[DisasterEvent]) -> IngestDelta:
        """Fold a batch of disaster records into the model.

        Duplicate keys (already present, or repeated within the batch)
        are dropped; the rest are appended.  Returns an
        :class:`IngestDelta`; the model fingerprint after a changing
        ingest equals that of a model rebuilt from scratch over the
        same events.

        Raises:
            ValueError: for an event class the model does not carry
                (checked for the whole batch before anything changes).
        """
        parent_fp = self.fingerprint
        keys = [event.identity for event in events]
        archived = self._archived(keys)
        fresh: Dict[str, List[DisasterEvent]] = {}
        duplicates = 0
        seen_batch: Set[EventKey] = set()
        for event, key, in_archive in zip(events, keys, archived):
            if in_archive or key in self._ingested or key in seen_batch:
                duplicates += 1
                continue
            seen_batch.add(key)
            fresh.setdefault(event.event_type, []).append(event)

        for event_type, batch in fresh.items():
            kde = self._kdes[event_type]
            assert isinstance(kde, StreamingKDE)
            kde.append_events(
                points_to_array([e.location for e in batch])
            )
        self._ingested |= seen_batch

        if fresh:
            self._fingerprint = None
        return IngestDelta(
            parent_fingerprint=parent_fp,
            fingerprint=self.fingerprint,
            appended=len(seen_batch),
            duplicates=duplicates,
            touched_types=tuple(sorted(fresh)),
        )

    def _archived(self, keys: List[EventKey]) -> List[bool]:
        """Which keys the archive catalogs hold: one search per class.

        Raises:
            ValueError: for a class the model does not carry, before
                any search.
        """
        rows: Dict[str, List[int]] = {}
        for i, key in enumerate(keys):
            if key[0] not in self._archive:
                raise ValueError(f"model has no class {key[0]!r}")
            rows.setdefault(key[0], []).append(i)
        found = np.zeros(len(keys), dtype=bool)
        for event_type, idx in rows.items():
            year, lat, lon = np.array(
                [keys[i][1:] for i in idx], dtype=np.int64
            ).T
            found[idx] = self._archive[event_type].contains(year, lat, lon)
        return found.tolist()

    # -- evaluation (incremental) ------------------------------------------

    def risks_array(self, latlon_deg: "np.ndarray") -> "np.ndarray":
        """Aggregate ``o_h`` through the resident kernel sums.

        Bitwise identical to the base implementation (same per-class
        values, same accumulation order); after an ingest only the
        dirty rows were recomputed.
        """
        latlon_deg = np.asarray(latlon_deg, dtype=np.float64)
        total = np.zeros(latlon_deg.shape[0], dtype=np.float64)
        for event_type in sorted(self._kdes):
            kde = self._kdes[event_type]
            assert isinstance(kde, StreamingKDE)
            class_risk = (
                kde.tracked_density(latlon_deg)
                * kde.bandwidth_miles
                * RISK_UNIT_MILES
            )
            total += self._weights[event_type] * class_risk
        return total


def default_streaming_model() -> StreamingHistoricalModel:
    """A streaming corpus model: all five classes, trained bandwidths.

    Built fresh per call (streaming models are mutable — sharing one
    via an lru_cache would entangle unrelated sessions).
    """
    return StreamingHistoricalModel(
        {
            event_type: catalog_of(event_type)
            for event_type in EventType.ALL
        }
    )
