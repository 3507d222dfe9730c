"""The combined five-class disaster corpus and its trained KDE fields.

This module is the top of the disaster substrate: it exposes the full
event corpus, runs the Table 1 bandwidth training per class, and builds
the per-class :class:`~repro.stats.kde.GaussianKDE` likelihood fields of
Figure 4.
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
from .events import DisasterCatalog, EventType
from .fema import fema_hurricanes, fema_storms, fema_tornadoes
from .noaa import noaa_earthquakes, noaa_wind

__all__ = [
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

_CATALOG_BUILDERS = {
    EventType.FEMA_HURRICANE: fema_hurricanes,
    EventType.FEMA_TORNADO: fema_tornadoes,
    EventType.FEMA_STORM: fema_storms,
    EventType.NOAA_EARTHQUAKE: noaa_earthquakes,
    EventType.NOAA_WIND: noaa_wind,
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


def catalog_of(event_type: str) -> DisasterCatalog:
    """The synthetic catalog of one event class.

    Raises:
        ValueError: for an unknown event type.
    """
    if event_type not in _CATALOG_BUILDERS:
        raise ValueError(f"unknown event type {event_type!r}")
    return _CATALOG_BUILDERS[event_type]()


@lru_cache(maxsize=None)
def train_bandwidth(event_type: str) -> BandwidthSearchResult:
    """Cross-validate the kernel bandwidth for one event class (Table 1).

    Five folds, as in the paper.  The candidate grid is class-specific
    (see ``_CANDIDATE_RANGES``), and the search scores a seeded
    subsample of at most 2,500 events of each class for tractability.
    """
    low, high, count = _CANDIDATE_RANGES[event_type]
    return cross_validate_bandwidth(
        catalog_of(event_type).latlon(),
        log_space_candidates(low, high, count),
        n_folds=5,
        max_events=2500,
        seed=7,
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
