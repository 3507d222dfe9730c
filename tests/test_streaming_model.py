"""StreamingHistoricalModel: ingest, dedup, parity.

Small hand-built catalogs (two classes, explicit bandwidths) keep these
fast while pinning the model-level contracts:

* duplicate delivery is safe — re-ingesting a record (same class, year
  and coordinate bits) is a no-op, for at-least-once upstream
  pipelines;
* after any ingest sequence, ``pop_risks`` and the model fingerprint
  equal those of a model rebuilt from scratch over the same events —
  streaming never forks the cache-key space.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disasters.catalog import catalog_of
from repro.disasters.events import DisasterCatalog, DisasterEvent, EventType
from repro.geo.coords import GeoPoint
from repro.risk.streaming import (
    IngestDelta,
    StreamingHistoricalModel,
    default_streaming_model,
)
from tests.conftest import build_diamond_network, examples

HURRICANE = EventType.FEMA_HURRICANE
QUAKE = EventType.NOAA_EARTHQUAKE
BANDWIDTHS = {HURRICANE: 60.0, QUAKE: 45.0}


def _event(event_type: str, lat: float, lon: float, year: int) -> DisasterEvent:
    return DisasterEvent(event_type, GeoPoint(lat, lon), year)


def _seed_events():
    return {
        HURRICANE: [
            _event(HURRICANE, 29.9, -90.1, 2001),
            _event(HURRICANE, 27.9, -97.4, 2002),
            _event(HURRICANE, 30.4, -89.1, 2003),
        ],
        QUAKE: [
            _event(QUAKE, 37.8, -122.4, 2000),
            _event(QUAKE, 34.1, -118.2, 2002),
            _event(QUAKE, 36.0, -117.7, 2004),
        ],
    }


def _catalog(event_type: str, batch) -> DisasterCatalog:
    return DisasterCatalog(
        event_type,
        [e.location.lat for e in batch],
        [e.location.lon for e in batch],
        [e.year for e in batch],
    )


def _build(events=None) -> StreamingHistoricalModel:
    events = _seed_events() if events is None else events
    return StreamingHistoricalModel(
        {et: _catalog(et, batch) for et, batch in events.items()},
        bandwidths=BANDWIDTHS,
    )


class TestIngest:
    def test_append_matches_rebuild(self):
        network = build_diamond_network()
        model = _build()
        model.pop_risks(network)  # warm the tracked point set
        fresh = [
            _event(HURRICANE, 29.95, -90.07, 2005),
            _event(QUAKE, 36.1, -120.0, 2004),
        ]
        delta = model.ingest(fresh)
        assert delta.changed
        assert delta.appended == 2
        assert delta.duplicates == 0
        assert delta.touched_types == (HURRICANE, QUAKE)

        seeds = _seed_events()
        seeds[HURRICANE].append(fresh[0])
        seeds[QUAKE].append(fresh[1])
        oracle = _build(seeds)
        assert model.fingerprint == oracle.fingerprint
        incremental = model.pop_risks(network)
        rebuilt = oracle.pop_risks(network)
        assert set(incremental) == set(rebuilt)
        for pop_id in incremental:
            assert incremental[pop_id] == rebuilt[pop_id]

    def test_duplicate_records_are_dropped(self):
        """Regression: at-least-once delivery cannot double-count."""
        network = build_diamond_network()
        model = _build()
        fresh = [_event(HURRICANE, 29.95, -90.07, 2005)]
        model.ingest(fresh)
        before_fp = model.fingerprint
        before = model.pop_risks(network)
        redelivered = model.ingest(
            [_event(HURRICANE, 29.95, -90.07, 2005)]
        )
        assert not redelivered.changed
        assert redelivered.appended == 0
        assert redelivered.duplicates == 1
        assert model.fingerprint == before_fp
        assert model.pop_risks(network) == before

    def test_duplicates_within_one_batch(self):
        model = _build()
        record = _event(QUAKE, 35.5, -117.5, 2004)
        delta = model.ingest([record, record])
        assert delta.appended == 1 and delta.duplicates == 1

    def test_identity_membership(self):
        model = _build()
        seeded = _seed_events()[HURRICANE][0]
        assert model.ingest([seeded]).duplicates == 1
        fresh = _event(HURRICANE, 25.0, -80.0, 2006)
        assert model.ingest([fresh]).appended == 1
        assert model.ingest([fresh]).duplicates == 1

    def test_unknown_class_rejected_before_mutation(self):
        model = _build()
        before = model.fingerprint
        valid = _event(HURRICANE, 29.0, -90.0, 2006)
        with pytest.raises(ValueError):
            model.ingest([
                valid,
                _event(EventType.FEMA_TORNADO, 35.0, -97.0, 2006),
            ])
        assert model.fingerprint == before
        assert model.ingest([valid]).appended == 1


class TestIngestParityProperty:
    year = st.integers(1998, 2010)
    point = st.tuples(
        st.floats(min_value=26.0, max_value=44.0),
        st.floats(min_value=-120.0, max_value=-80.0),
    )

    @given(data=st.data())
    @settings(max_examples=examples(10), deadline=None)
    def test_random_batches_match_rebuild(self, data):
        """pop_risks parity under random ingest sequences (the 1e-9
        rtol pin, model level)."""
        network = build_diamond_network()
        model = _build()
        model.pop_risks(network)
        survivors = {
            et: list(batch) for et, batch in _seed_events().items()
        }
        for _ in range(data.draw(st.integers(1, 3), label="batches")):
            batch = [
                _event(
                    data.draw(st.sampled_from([HURRICANE, QUAKE])),
                    *data.draw(self.point),
                    data.draw(self.year),
                )
                for _ in range(data.draw(st.integers(1, 4), label="size"))
            ]
            model.ingest(batch)
            seen = {
                e.identity
                for batch_events in survivors.values()
                for e in batch_events
            }
            for event in batch:
                if event.identity in seen:
                    continue
                seen.add(event.identity)
                survivors[event.event_type].append(event)
        oracle = _build(survivors)
        assert model.fingerprint == oracle.fingerprint
        incremental = model.pop_risks(network)
        rebuilt = oracle.pop_risks(network)
        for pop_id in incremental:
            np.testing.assert_allclose(
                incremental[pop_id], rebuilt[pop_id], rtol=1e-9
            )


class TestDedupKeys:
    def test_column_keys_equal_event_keys_for_every_corpus_event(self):
        """Each corpus row, rebuilt as a wire record, is found by the
        archive's column search, one batch per class."""
        model = default_streaming_model()
        before = model.fingerprint
        for event_type in EventType.ALL:
            catalog = catalog_of(event_type)
            rows = zip(
                catalog.lat.tolist(),
                catalog.lon.tolist(),
                catalog.year.tolist(),
            )
            delta = model.ingest(
                [_event(event_type, lat, lon, year) for lat, lon, year in rows]
            )
            assert (delta.appended, delta.duplicates) == (0, len(catalog))
        assert model.fingerprint == before

    def test_signed_zeros_stay_distinct(self):
        east = _event(HURRICANE, 0.0, 0.0, 2001)
        west = _event(HURRICANE, -0.0, -0.0, 2001)
        assert east.identity != west.identity
        seeds = _seed_events()
        seeds[HURRICANE].append(east)
        archived = _build(seeds)
        assert archived.ingest([east]).duplicates == 1
        assert archived.ingest([west]).appended == 1
        model = _build()
        assert model.ingest([east]).appended == 1
        assert model.ingest([west]).appended == 1
        assert model.ingest([east, west]).duplicates == 2

    def test_reingesting_a_corpus_event_is_a_duplicate(self):
        model = default_streaming_model()
        before = model.fingerprint
        for event_type in EventType.ALL:
            catalog = catalog_of(event_type)
            row = len(catalog) // 2
            event = _event(
                event_type,
                float(catalog.lat[row]),
                float(catalog.lon[row]),
                int(catalog.year[row]),
            )
            delta = model.ingest([event])
            assert (delta.appended, delta.duplicates) == (0, 1)
            assert not delta.changed
        assert model.fingerprint == before

    def test_near_misses_of_a_corpus_row_append(self):
        """A corpus row of every class is a duplicate; the same point a
        year later, or at the next float of latitude, is a new event."""
        model = default_streaming_model()
        for event_type in EventType.ALL:
            catalog = catalog_of(event_type)
            row = len(catalog) // 3
            lat = float(catalog.lat[row])
            lon = float(catalog.lon[row])
            year = int(catalog.year[row])
            batch = [
                _event(event_type, lat, lon, year),
                _event(event_type, lat, lon, year + 1),
                _event(event_type, float(np.nextafter(lat, 90.0)), lon, year),
            ]
            delta = model.ingest(batch)
            assert (delta.appended, delta.duplicates) == (2, 1)
            assert delta.touched_types == (event_type,)
            assert model.ingest(batch).duplicates == 3

    def test_corpus_keys_retain_under_16_mb(self):
        """Memory guard: the streaming model over the five corpus
        catalogs keeps 24 bytes of keys per event (about 4 MB), where
        one Python tuple per event kept about 40 MB."""
        for event_type in EventType.ALL:
            catalog_of(event_type)  # built and memoized outside the trace
        tracemalloc.start()
        try:
            model = default_streaming_model()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 16 * 2**20, (
            f"{retained / 2**20:.1f} MiB retained by {type(model).__name__}"
        )


class TestDedupStoreProperty:
    """The column search against a reference that dedups with a Python
    set of :attr:`DisasterEvent.identity` and rebuilds for the
    fingerprint."""

    # Few distinct values, so keys collide: signed zeros, equal lat
    # with another lon (and the next float of lat), one point in two
    # years.
    lat = st.sampled_from([0.0, -0.0, 30.0, float(np.nextafter(30.0, 90.0))])
    lon = st.sampled_from([0.0, -0.0, -90.0, -90.5])
    year = st.sampled_from([2000, 2001])

    def record(self, event_type):
        return st.builds(
            _event, st.just(event_type), self.lat, self.lon, self.year
        )

    @given(data=st.data())
    @settings(max_examples=examples(30), deadline=None)
    def test_ingest_matches_set_reference(self, data):
        corpus = {
            et: data.draw(st.lists(self.record(et), min_size=1, max_size=6),
                          label=f"catalog {et}")
            for et in (HURRICANE, QUAKE)
        }
        model = _build(corpus)
        survivors = {et: list(rows) for et, rows in corpus.items()}
        seen = {e.identity for rows in corpus.values() for e in rows}
        fingerprint = model.fingerprint
        corpus_rows = [e for rows in corpus.values() for e in rows]
        sent = []
        for _ in range(data.draw(st.integers(1, 4), label="batches")):
            fresh = st.one_of(self.record(HURRICANE), self.record(QUAKE))
            batch = data.draw(
                st.lists(fresh | st.sampled_from(corpus_rows), max_size=6),
                label="batch",
            )
            if sent and data.draw(st.booleans(), label="resend"):
                batch = data.draw(st.sampled_from(sent), label="resent")
            if batch and data.draw(st.booleans(), label="repeat"):
                batch = batch + [data.draw(st.sampled_from(batch))]
            sent.append(batch)
            appended = []
            for event in batch:
                if event.identity not in seen:
                    seen.add(event.identity)
                    appended.append(event)
                    survivors[event.event_type].append(event)
            expected = IngestDelta(
                parent_fingerprint=fingerprint,
                fingerprint=_build(survivors).fingerprint,
                appended=len(appended),
                duplicates=len(batch) - len(appended),
                touched_types=tuple(sorted({e.event_type for e in appended})),
            )
            assert model.ingest(batch) == expected
            assert model.fingerprint == expected.fingerprint
            fingerprint = expected.fingerprint
