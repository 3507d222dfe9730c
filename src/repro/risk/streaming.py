"""Streaming historical risk: live event ingest with O(touched) updates.

:class:`StreamingHistoricalModel` is a
:class:`~repro.risk.historical.HistoricalRiskModel` whose per-class
estimates are :class:`~repro.stats.streaming.StreamingKDE` instances
built from full catalogs (so every event carries its year and stable
:attr:`~repro.disasters.events.DisasterEvent.identity`).  New disaster
records are folded in with :meth:`ingest`:

* records whose identity is already present are **dropped as
  duplicates** (at-least-once delivery upstream is safe),
* fresh records are appended into the per-class KDEs — an O(K) bucket
  patch plus a recompute of only the query rows near the new events,
* with a rolling ``window_years`` configured, records that fell off the
  trailing window edge are **retired** the same way (and too-old
  incoming records are dropped as stale).

Parity: every density evaluated through the tracked-point path is
bitwise identical to a from-scratch ``GaussianKDE`` rebuild over the
surviving events (see :mod:`repro.stats.streaming`), so ``pop_risks``
and the model :attr:`fingerprint` are exactly what a cold process would
compute — streaming never forks the memo-key space.  A PoP outside the
truncation reach of every event of the touched classes has kernel sum
exactly ``0.0`` there before and after the patch, so its ``o_h`` is
bitwise unchanged — that is what lets the engine keep memoized sweeps
for untouched regions across an ingest.

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
from ..disasters.events import DisasterCatalog, DisasterEvent, EventType
from ..stats.kde import DEFAULT_CUTOFF_SIGMAS, points_to_array
from ..stats.streaming import StreamingKDE
from .historical import RISK_UNIT_MILES, HistoricalRiskModel

__all__ = ["StreamingHistoricalModel", "IngestDelta", "default_streaming_model"]


@dataclass(frozen=True)
class IngestDelta:
    """Outcome of one :meth:`StreamingHistoricalModel.ingest` call."""

    parent_fingerprint: str
    fingerprint: str
    appended: int
    retired: int
    duplicates: int
    stale: int
    touched_types: Tuple[str, ...]

    @property
    def changed(self) -> bool:
        """False when the batch was entirely duplicates/stale."""
        return self.fingerprint != self.parent_fingerprint

    def as_dict(self) -> dict:
        """Wire-friendly summary (the server's ``ingest`` reply body)."""
        return {
            "appended": self.appended,
            "retired": self.retired,
            "duplicates": self.duplicates,
            "stale": self.stale,
            "touched_types": list(self.touched_types),
            "changed": self.changed,
        }


class StreamingHistoricalModel(HistoricalRiskModel):
    """A historical risk model that accepts live event ingest.

    Args:
        catalogs: event-class -> full :class:`DisasterCatalog` (years
            and identities are retained per event, in KDE row order).
        bandwidths: per-class kernel bandwidth in miles; defaults to
            the pretrained Table 1 values.
        weights: per-class emphasis, as in the base model.
        window_years: optional rolling window length.  When set, only
            events with ``year > latest - window_years`` participate,
            where ``latest`` advances as newer events are ingested;
            events crossing the trailing edge are retired incrementally.
        cutoff_sigmas: kernel truncation radius (must not be None —
            streaming requires the cell-binned path).
    """

    def __init__(
        self,
        catalogs: Mapping[str, DisasterCatalog],
        bandwidths: Optional[Mapping[str, float]] = None,
        weights: Optional[Mapping[str, float]] = None,
        window_years: Optional[int] = None,
        cutoff_sigmas: float = DEFAULT_CUTOFF_SIGMAS,
    ) -> None:
        if not catalogs:
            raise ValueError("need at least one event-class catalog")
        if window_years is not None and window_years < 1:
            raise ValueError("window_years must be a positive year count")
        self._window_years = window_years
        self._years: Dict[str, "np.ndarray"] = {}
        self._ids: Dict[str, List[str]] = {}
        self._id_set: Set[str] = set()

        snapshots: Dict[str, Tuple[DisasterEvent, ...]] = {}
        latest = None
        for event_type, catalog in catalogs.items():
            events = catalog.events()
            if not events:
                raise ValueError(f"empty catalog for {event_type!r}")
            snapshots[event_type] = events
            top = max(e.year for e in events)
            latest = top if latest is None else max(latest, top)
        kdes: Dict[str, StreamingKDE] = {}
        for event_type, events in snapshots.items():
            if window_years is not None:
                cutoff = latest - window_years + 1
                events = tuple(e for e in events if e.year >= cutoff)
                if not events:
                    raise ValueError(
                        f"window_years={window_years} leaves no "
                        f"{event_type!r} events"
                    )
            bandwidth = (
                PRETRAINED_BANDWIDTHS[event_type]
                if bandwidths is None
                else float(bandwidths[event_type])
            )
            kdes[event_type] = StreamingKDE.from_array(
                points_to_array([e.location for e in events]),
                bandwidth,
                cutoff_sigmas=cutoff_sigmas,
            )
            self._years[event_type] = np.array(
                [e.year for e in events], dtype=np.int64
            )
            identities = [e.identity for e in events]
            self._ids[event_type] = identities
            self._id_set.update(identities)
        super().__init__(kdes, weights)

    # -- introspection -----------------------------------------------------

    @property
    def window_years(self) -> Optional[int]:
        """The rolling window length, or None for all history."""
        return self._window_years

    def latest_year(self) -> int:
        """The newest event year currently in the model."""
        return max(int(years.max()) for years in self._years.values())

    def event_counts(self) -> Dict[str, int]:
        """Current event count per class."""
        return {
            event_type: int(years.shape[0])
            for event_type, years in sorted(self._years.items())
        }

    def __contains__(self, identity: str) -> bool:
        return identity in self._id_set

    # -- ingest ------------------------------------------------------------

    def ingest(
        self,
        events: Sequence[DisasterEvent],
        now_year: Optional[int] = None,
    ) -> IngestDelta:
        """Fold a batch of disaster records into the model.

        Duplicate identities (already present, or repeated within the
        batch) are dropped; with a rolling window, the window edge
        advances to the newest year seen (or ``now_year`` if later) and
        old events are retired.  Returns an :class:`IngestDelta`; the
        model fingerprint after a changing ingest equals that of a
        model rebuilt from scratch over the surviving events.

        Raises:
            ValueError: for an event class the model does not carry, or
                a window slide that would leave a class empty.
        """
        parent_fp = self.fingerprint
        fresh: Dict[str, List[DisasterEvent]] = {}
        duplicates = 0
        seen_batch: Set[str] = set()
        for event in events:
            if event.event_type not in self._kdes:
                raise ValueError(
                    f"model has no class {event.event_type!r}"
                )
            identity = event.identity
            if identity in self._id_set or identity in seen_batch:
                duplicates += 1
                continue
            seen_batch.add(identity)
            fresh.setdefault(event.event_type, []).append(event)

        stale = 0
        cutoff = None
        if self._window_years is not None:
            latest = self.latest_year()
            for batch in fresh.values():
                latest = max(latest, max(e.year for e in batch))
            if now_year is not None:
                latest = max(latest, int(now_year))
            cutoff = latest - self._window_years + 1
            for event_type in list(fresh):
                kept = [e for e in fresh[event_type] if e.year >= cutoff]
                stale += len(fresh[event_type]) - len(kept)
                if kept:
                    fresh[event_type] = kept
                else:
                    del fresh[event_type]

        # Validate the whole batch before mutating anything: a window
        # slide must not empty a class.
        retire_plan: Dict[str, "np.ndarray"] = {}
        if cutoff is not None:
            for event_type, years in self._years.items():
                old = np.flatnonzero(years < cutoff)
                if old.size == 0:
                    continue
                survivors = (
                    years.shape[0]
                    - old.size
                    + len(fresh.get(event_type, ()))
                )
                if survivors < 1:
                    raise ValueError(
                        f"window slide to >= {cutoff} would retire every "
                        f"{event_type!r} event"
                    )
                retire_plan[event_type] = old

        appended = 0
        retired = 0
        touched: Set[str] = set()
        for event_type, batch in fresh.items():
            kde = self._kdes[event_type]
            assert isinstance(kde, StreamingKDE)
            kde.append_events(
                points_to_array([e.location for e in batch])
            )
            self._years[event_type] = np.concatenate(
                [
                    self._years[event_type],
                    np.array([e.year for e in batch], dtype=np.int64),
                ]
            )
            identities = [e.identity for e in batch]
            self._ids[event_type].extend(identities)
            self._id_set.update(identities)
            appended += len(batch)
            touched.add(event_type)
        for event_type, old in retire_plan.items():
            kde = self._kdes[event_type]
            kde.retire_events(old)
            self._years[event_type] = np.delete(
                self._years[event_type], old
            )
            ids = self._ids[event_type]
            for row in old[::-1]:
                self._id_set.discard(ids.pop(int(row)))
            retired += int(old.size)
            touched.add(event_type)

        if touched:
            self._fingerprint = None
        return IngestDelta(
            parent_fingerprint=parent_fp,
            fingerprint=self.fingerprint,
            appended=appended,
            retired=retired,
            duplicates=duplicates,
            stale=stale,
            touched_types=tuple(sorted(touched)),
        )

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


def default_streaming_model(
    window_years: Optional[int] = None,
) -> StreamingHistoricalModel:
    """A streaming corpus model: all five classes, trained bandwidths.

    Built fresh per call (streaming models are mutable — sharing one
    via an lru_cache would entangle unrelated sessions).
    """
    return StreamingHistoricalModel(
        {
            event_type: catalog_of(event_type)
            for event_type in EventType.ALL
        },
        window_years=window_years,
    )
