"""Benchmark: truncated cell-binned KDE vs the exact dense sweep.

The seed evaluated every ``o_h`` query against all ~176k corpus events —
a dense (queries x events) haversine/exp matrix per class.  The
truncated path snaps events into a unit-sphere bucket grid and evaluates
each query against only the events within 8 standard deviations, which
for the trained bandwidths drops >90% of the kernel pairs while staying
within ``exp(-32)/(2 pi sigma^2)`` of the dense value.

This file pins two properties on the full five-class corpus over the
largest network (Level3, 233 PoPs):

* the truncated full-corpus ``pop_risks`` sweep is >= 5x faster than
  the exact dense path (and within 2x of ``kde_baseline.json``), and
* truncated o_h matches exact o_h within 1e-9 relative tolerance.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.disasters.catalog import PRETRAINED_BANDWIDTHS, catalog_of
from repro.risk.historical import HistoricalRiskModel
from repro.stats.kde import GaussianKDE
from repro.topology.zoo import network_by_name

from .conftest import run_once

BASELINE_PATH = Path(__file__).with_name("kde_baseline.json")

#: Hard floor from the issue: truncated sweep >= 5x over exact dense.
MIN_SPEEDUP = 5.0


def _models():
    """Exact and truncated five-class models over the same event arrays."""
    arrays = {
        event_type: catalog_of(event_type).latlon()
        for event_type in PRETRAINED_BANDWIDTHS
    }
    exact = HistoricalRiskModel(
        {
            et: GaussianKDE(
                arr, PRETRAINED_BANDWIDTHS[et], cutoff_sigmas=None
            )
            for et, arr in arrays.items()
        }
    )
    truncated = HistoricalRiskModel(
        {
            et: GaussianKDE(arr, PRETRAINED_BANDWIDTHS[et])
            for et, arr in arrays.items()
        }
    )
    return exact, truncated


def test_kde_truncation_speedup_level3(benchmark):
    network = network_by_name("Level3")
    latlon = network.latlon()
    exact_model, truncated_model = _models()

    t0 = time.perf_counter()
    dense = exact_model.risks_array(latlon)
    dense_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast = run_once(benchmark, truncated_model.risks_array, latlon)
    fast_seconds = max(time.perf_counter() - t0, 1e-9)

    np.testing.assert_allclose(fast, dense, rtol=1e-9)

    speedup = dense_seconds / fast_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"truncated sweep only {speedup:.1f}x over exact dense "
        f"({dense_seconds:.3f}s vs {fast_seconds:.3f}s)"
    )

    # CI regression smoke: stay within 2x of the recorded speedup.
    if BASELINE_PATH.exists():
        recorded = json.loads(BASELINE_PATH.read_text())["speedup"]
        assert speedup >= recorded / 2.0, (
            f"speedup regressed to {speedup:.1f}x; "
            f"baseline records {recorded:.1f}x"
        )

