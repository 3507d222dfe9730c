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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disasters.catalog import catalog_of
from repro.disasters.events import DisasterCatalog, DisasterEvent, EventType
from repro.geo.coords import GeoPoint
from repro.risk.streaming import (
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
        for event_type in EventType.ALL:
            catalog = catalog_of(event_type)
            rows = zip(
                catalog.lat.tolist(),
                catalog.lon.tolist(),
                catalog.year.tolist(),
            )
            assert catalog.keys() == [
                _event(event_type, lat, lon, year).identity
                for lat, lon, year in rows
            ]

    def test_signed_zeros_stay_distinct(self):
        east = _event(HURRICANE, 0.0, 0.0, 2001)
        west = _event(HURRICANE, -0.0, -0.0, 2001)
        assert east.identity != west.identity
        assert _catalog(HURRICANE, [east, west]).keys() == [
            east.identity, west.identity
        ]
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
