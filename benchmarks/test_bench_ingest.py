"""Benchmark: incremental ingest vs full model rebuild (Level3, 233 PoPs).

The streaming-ingest issue's headline number.  The seed's only way to
absorb new disaster events was a from-scratch rebuild: re-bin all ~176k
corpus events, rebuild every bucket index, re-sweep every PoP.  The
streaming path patches the touched class's kernel sums for only the
PoPs within truncation reach of the new events and rescales the rest
by the normaliser ratio — O(touched cells), not O(corpus).

This file pins, on the full five-class corpus over Level3:

* appending 10 events through ``StreamingHistoricalModel.ingest`` plus
  the follow-up ``pop_risks`` sweep is >= 10x faster than rebuilding
  a :class:`HistoricalRiskModel` over the concatenated arrays and
  sweeping cold (and within 2x of ``ingest_baseline.json``), and
* the incremental ``pop_risks`` match the rebuilt model's within 1e-9
  relative tolerance (the issue's parity oracle).

Each path builds its own model, so neither reads an ``o_h`` vector the
other memoized: the rebuild measures the sweep.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.disasters.catalog import PRETRAINED_BANDWIDTHS, catalog_of
from repro.disasters.events import DisasterEvent, EventType
from repro.geo.coords import GeoPoint
from repro.risk.historical import HistoricalRiskModel
from repro.risk.streaming import StreamingHistoricalModel
from repro.stats.kde import GaussianKDE, points_to_array
from repro.topology.zoo import network_by_name

from .conftest import run_once

BASELINE_PATH = Path(__file__).with_name("ingest_baseline.json")

#: Hard floor from the issue: 10-event append >= 10x over full rebuild.
MIN_SPEEDUP = 10.0

#: Ten synthetic hurricanes along the Gulf coast — inside the corpus
#: envelope (so they dirty real PoP rows) but at coordinates no corpus
#: event occupies (so nothing deduplicates away).
FRESH_EVENTS = [
    DisasterEvent(EventType.FEMA_HURRICANE, GeoPoint(lat, lon), year)
    for lat, lon, year in [
        (29.123, -90.456, 2005),
        (27.891, -97.234, 2005),
        (30.345, -88.912, 2006),
        (28.678, -95.567, 2006),
        (29.901, -93.123, 2007),
        (26.789, -82.345, 2007),
        (31.234, -81.678, 2008),
        (29.456, -89.789, 2008),
        (28.123, -96.901, 2009),
        (30.012, -87.345, 2009),
    ]
]


def test_ingest_vs_rebuild_level3(benchmark):
    network = network_by_name("Level3")

    streaming = StreamingHistoricalModel(
        {et: catalog_of(et) for et in EventType.ALL}
    )
    # Warm: register the PoP rows as the tracked set, the state a
    # long-lived server is in when an ingest batch arrives.
    streaming.pop_risks(network)

    def ingest_and_sweep():
        streaming.ingest(FRESH_EVENTS)
        return streaming.pop_risks(network)

    t0 = time.perf_counter()
    incremental = run_once(benchmark, ingest_and_sweep)
    incremental_seconds = max(time.perf_counter() - t0, 1e-9)

    def rebuild_and_sweep():
        arrays = {
            et: catalog_of(et).latlon()
            for et in EventType.ALL
        }
        hurricane = EventType.FEMA_HURRICANE
        fresh = points_to_array([e.location for e in FRESH_EVENTS])
        arrays[hurricane] = np.vstack([arrays[hurricane], fresh])
        model = HistoricalRiskModel(
            {
                et: GaussianKDE(arr, PRETRAINED_BANDWIDTHS[et])
                for et, arr in arrays.items()
            }
        )
        return model.pop_risks(network)

    t0 = time.perf_counter()
    rebuilt = rebuild_and_sweep()
    rebuild_seconds = time.perf_counter() - t0

    assert set(incremental) == set(rebuilt)
    for pop_id in incremental:
        np.testing.assert_allclose(
            incremental[pop_id], rebuilt[pop_id], rtol=1e-9
        )

    speedup = rebuild_seconds / incremental_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"incremental ingest only {speedup:.1f}x over full rebuild "
        f"({rebuild_seconds:.3f}s vs {incremental_seconds:.3f}s)"
    )

    # CI regression smoke: stay within 2x of the recorded speedup.
    if BASELINE_PATH.exists():
        recorded = json.loads(BASELINE_PATH.read_text())["speedup"]
        assert speedup >= recorded / 2.0, (
            f"speedup regressed to {speedup:.1f}x; "
            f"baseline records {recorded:.1f}x"
        )
