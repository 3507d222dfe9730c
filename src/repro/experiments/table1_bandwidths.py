"""Table 1: trained kernel density bandwidths for FEMA and NOAA data."""

from __future__ import annotations

from ..disasters.catalog import PAPER_BANDWIDTHS, train_bandwidth
from ..disasters.events import EventType, PAPER_EVENT_COUNTS
from .base import ExperimentResult, register

_LABELS = {
    EventType.FEMA_HURRICANE: "FEMA Hurricane",
    EventType.FEMA_TORNADO: "FEMA Tornado",
    EventType.FEMA_STORM: "FEMA Storm",
    EventType.NOAA_EARTHQUAKE: "NOAA Earthquake",
    EventType.NOAA_WIND: "NOAA Wind",
}


@register("table1")
def run() -> ExperimentResult:
    """Regenerate Table 1 by 5-fold cross validation."""
    rows = []
    for event_type in EventType.ALL:
        result = train_bandwidth(event_type)
        rows.append(
            {
                "event_type": _LABELS[event_type],
                "entries": PAPER_EVENT_COUNTS[event_type],
                "bandwidth_miles": result.best_bandwidth_miles,
                "paper_bandwidth": PAPER_BANDWIDTHS[event_type],
                "cv_events_used": result.n_events_used,
            }
        )
    return ExperimentResult(
        experiment_id="table1",
        title="Trained kernel density bandwidths (5-fold CV, KL divergence)",
        rows=rows,
        notes=(
            "Expected shape: wind < storm < tornado < hurricane < earthquake. "
            "Absolute values differ from the paper (synthetic catalogs; "
            "miles-scale kernel), ordering is the reproduced result."
        ),
    )
