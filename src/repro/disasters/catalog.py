"""The combined five-class disaster corpus and its trained KDE fields.

This module is the top of the disaster substrate: it builds each event
catalog, runs the Table 1 bandwidth training per class, and builds the
per-class :class:`~repro.stats.kde.GaussianKDE` likelihood fields of
Figure 4.

The paper observes, between 1970 and 2010, 29,865 FEMA declarations for
the weather classes that threaten Internet infrastructure (20,623 severe
storms, 6,437 tornadoes and 2,805 hurricanes) and, in NOAA's records,
143,847 damaging-wind events and 2,267 earthquakes (Section 4.3).  Each
class is synthesized at exactly that size from its generative model and
its seed in :data:`CATALOG_SEEDS`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

from ..stats.bandwidth import (
    BandwidthSearchResult,
    cross_validate_bandwidth,
    log_space_candidates,
)
from ..stats.kde import GaussianKDE
from .events import PAPER_EVENT_COUNTS, DisasterCatalog, EventType
from .generators import generate_events

__all__ = [
    "CATALOG_SEEDS",
    "catalog_of",
    "train_bandwidth",
    "event_kde",
    "all_event_kdes",
    "PAPER_BANDWIDTHS",
    "PRETRAINED_BANDWIDTHS",
]

#: Trained kernel bandwidths reported in Table 1 of the paper, for
#: comparison in EXPERIMENTS.md (units: the paper's kernel scale).
PAPER_BANDWIDTHS: Dict[str, float] = {
    EventType.FEMA_HURRICANE: 71.56,
    EventType.FEMA_TORNADO: 59.48,
    EventType.FEMA_STORM: 24.38,
    EventType.NOAA_EARTHQUAKE: 298.82,
    EventType.NOAA_WIND: 3.59,
}

#: Bandwidths (miles) trained by :func:`train_bandwidth` on the default
#: synthetic corpus, shipped as constants so the risk pipeline does not
#: pay the ~20 s cross-validation on every import.  Regenerate with the
#: Table 1 experiment (``riskroute run table1``);
#: ``benchmarks/test_bench_table1.py`` asserts that its training run
#: rounds to these constants.
PRETRAINED_BANDWIDTHS: Dict[str, float] = {
    EventType.FEMA_HURRICANE: 59.08,
    EventType.FEMA_TORNADO: 49.72,
    EventType.FEMA_STORM: 25.84,
    EventType.NOAA_EARTHQUAKE: 84.75,
    EventType.NOAA_WIND: 13.72,
}

#: The generator seed of each class's synthetic catalog.
CATALOG_SEEDS: Dict[str, int] = {
    EventType.FEMA_HURRICANE: 1001,
    EventType.FEMA_TORNADO: 1002,
    EventType.FEMA_STORM: 1003,
    EventType.NOAA_WIND: 2001,
    EventType.NOAA_EARTHQUAKE: 2002,
}

#: Per-class candidate grids for bandwidth training (miles).  Each grid
#: brackets the scale of that hazard's clustering.
_CANDIDATE_RANGES: Dict[str, Tuple[float, float, int]] = {
    EventType.FEMA_HURRICANE: (20.0, 300.0, 16),
    EventType.FEMA_TORNADO: (15.0, 300.0, 16),
    EventType.FEMA_STORM: (8.0, 150.0, 16),
    EventType.NOAA_EARTHQUAKE: (60.0, 800.0, 16),
    EventType.NOAA_WIND: (1.5, 60.0, 16),
}


@lru_cache(maxsize=None)
def catalog_of(event_type: str) -> DisasterCatalog:
    """The synthetic catalog of one event class, at its paper count.

    Raises:
        ValueError: for an unknown event type.
    """
    if event_type not in CATALOG_SEEDS:
        raise ValueError(f"unknown event type {event_type!r}")
    return generate_events(
        event_type, PAPER_EVENT_COUNTS[event_type], CATALOG_SEEDS[event_type]
    )


@lru_cache(maxsize=None)
def train_bandwidth(event_type: str) -> BandwidthSearchResult:
    """Cross-validate the kernel bandwidth for one event class (Table 1).

    Five folds, as in the paper.  The candidate grid is class-specific
    (see ``_CANDIDATE_RANGES``), and the search scores a seeded
    subsample of at most 2,500 events of each class for tractability
    (the constants of :mod:`repro.stats.bandwidth`).
    """
    low, high, count = _CANDIDATE_RANGES[event_type]
    return cross_validate_bandwidth(
        catalog_of(event_type).latlon(), log_space_candidates(low, high, count)
    )


@lru_cache(maxsize=None)
def event_kde(event_type: str) -> GaussianKDE:
    """The likelihood field of one event class (Figure 4, panels A-E),
    at its pretrained bandwidth (see :data:`PRETRAINED_BANDWIDTHS`)
    and the default 8-sigma kernel truncation."""
    return GaussianKDE(
        catalog_of(event_type).latlon(), PRETRAINED_BANDWIDTHS[event_type]
    )


def all_event_kdes() -> Dict[str, GaussianKDE]:
    """Trained KDE per event class."""
    return {event_type: event_kde(event_type) for event_type in EventType.ALL}
