"""Benchmark: regenerate Table 1 (trained kernel bandwidths)."""

from repro.disasters.catalog import PRETRAINED_BANDWIDTHS
from repro.disasters.events import EventType
from repro.experiments.table1_bandwidths import run

from .conftest import run_once


def test_table1_bandwidths(benchmark):
    result = run_once(benchmark, run)
    by_type = {row["event_type"]: row["bandwidth_miles"] for row in result.rows}
    # Paper ordering: wind < storm < tornado < hurricane < earthquake.
    assert (
        by_type["NOAA Wind"]
        < by_type["FEMA Storm"]
        < by_type["FEMA Tornado"]
        < by_type["FEMA Hurricane"]
        < by_type["NOAA Earthquake"]
    )
    # Entries match the paper's catalog sizes exactly.
    entries = {row["event_type"]: row["entries"] for row in result.rows}
    assert entries["NOAA Wind"] == 143_847
    assert entries["FEMA Hurricane"] == 2_805
    # The shipped constants that drive every o_h field are this training
    # run, rounded to 2 decimals (rows come in EventType.ALL order).
    for event_type, row in zip(EventType.ALL, result.rows):
        assert round(row["bandwidth_miles"], 2) == PRETRAINED_BANDWIDTHS[event_type], row
