"""Seasonal disaster risk (the Section 5.2 extension).

The paper notes that "many of the disaster events have strong seasonal
correlations (e.g., tornados, hurricanes)" but folds every class into a
single annual distribution "for simplicity".  This module implements the
acknowledged extension: each event carries a month drawn from its class's
climatological profile, and per-month kernel density fields replace the
annual ones, so a network can be routed for *July* (hurricane season)
differently than for *January* (ice/wind season).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from ..stats.kde import GaussianKDE
from .catalog import PRETRAINED_BANDWIDTHS, catalog_of
from .events import DisasterCatalog, EventType

__all__ = [
    "MONTHLY_CLIMATOLOGY",
    "assign_months",
    "seasonal_catalog",
    "seasonal_kde",
    "seasonal_kdes",
    "seasonal_rate_multiplier",
    "seasonal_historical_model",
    "monthly_event_weights",
]

#: Relative monthly activity per event class (Jan..Dec), shaped after US
#: climatology: hurricanes peak Aug-Sep, tornadoes Apr-Jun, severe storms
#: spring-summer, damaging wind early summer, earthquakes flat.
MONTHLY_CLIMATOLOGY: Dict[str, Tuple[float, ...]] = {
    EventType.FEMA_HURRICANE: (
        0.2, 0.2, 0.2, 0.3, 0.6, 1.5, 2.5, 6.0, 6.5, 3.0, 1.0, 0.3
    ),
    EventType.FEMA_TORNADO: (
        0.6, 0.8, 1.8, 3.5, 4.5, 3.5, 1.8, 1.2, 1.0, 1.0, 1.2, 0.8
    ),
    EventType.FEMA_STORM: (
        1.0, 1.2, 2.0, 3.0, 3.5, 3.5, 2.8, 2.2, 1.5, 1.2, 1.0, 1.0
    ),
    EventType.NOAA_EARTHQUAKE: (
        1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0
    ),
    EventType.NOAA_WIND: (
        0.8, 0.9, 1.5, 2.5, 3.5, 4.0, 3.5, 2.5, 1.5, 1.0, 0.9, 0.8
    ),
}


def monthly_event_weights(event_type: str) -> "np.ndarray":
    """Normalised per-month activity weights for an event class.

    Raises:
        ValueError: for an unknown class.
    """
    if event_type not in MONTHLY_CLIMATOLOGY:
        raise ValueError(f"unknown event type {event_type!r}")
    weights = np.array(MONTHLY_CLIMATOLOGY[event_type], dtype=np.float64)
    return weights / weights.sum()


def assign_months(catalog: DisasterCatalog) -> "np.ndarray":
    """A month (1..12) for every event, drawn from its class's
    climatology, in catalog order.

    Seeded, so the same event order always receives the same months.
    """
    rng = np.random.default_rng(11)
    weights = monthly_event_weights(catalog.event_type)
    return rng.choice(12, size=len(catalog), p=weights) + 1


@lru_cache(maxsize=None)
def seasonal_catalog(event_type: str, month: int) -> DisasterCatalog:
    """The sub-catalog of one class attributed to one month.

    Raises:
        ValueError: for a month outside 1..12.
    """
    if not 1 <= month <= 12:
        raise ValueError(f"month must be 1..12, got {month}")
    catalog = catalog_of(event_type)
    mask = assign_months(catalog) == month
    return DisasterCatalog(
        event_type, catalog.lat[mask], catalog.lon[mask], catalog.year[mask]
    )


@lru_cache(maxsize=None)
def seasonal_kde(event_type: str, month: int) -> GaussianKDE:
    """A monthly KDE for one class.

    The bandwidth is the annual trained bandwidth widened by the square
    root of the annual/monthly count ratio — the standard deviation-style
    correction for fitting a sparser sample, keeping monthly fields
    comparable in smoothness to the annual one.

    Raises:
        ValueError: when the class has no events in the month.
    """
    monthly = seasonal_catalog(event_type, month)
    if len(monthly) == 0:
        raise ValueError(f"{event_type} has no events in month {month}")
    annual = len(catalog_of(event_type))
    widen = float(np.sqrt(annual / len(monthly))) ** 0.5
    bandwidth = PRETRAINED_BANDWIDTHS[event_type] * widen
    return GaussianKDE(monthly.latlon(), bandwidth)


def seasonal_kdes(month: int) -> Dict[str, GaussianKDE]:
    """Monthly KDEs for every class that has events in ``month``."""
    out: Dict[str, GaussianKDE] = {}
    for event_type in EventType.ALL:
        if len(seasonal_catalog(event_type, month)) > 0:
            out[event_type] = seasonal_kde(event_type, month)
    return out


def seasonal_rate_multiplier(event_type: str, month: int) -> float:
    """The class's event *rate* in ``month`` relative to its annual
    average (1.0 = typical month; September hurricanes are several x).

    A KDE is a probability density normalised over its own events, so a
    seasonal risk field must be scaled by this multiplier to express
    that more events happen in season, not just elsewhere.
    """
    monthly = len(seasonal_catalog(event_type, month))
    annual = len(catalog_of(event_type))
    return 12.0 * monthly / annual if annual else 0.0


def seasonal_historical_model(month: int):
    """A month-specific drop-in for the default historical risk model.

    Combines each class's monthly KDE with its rate multiplier as the
    per-class weight, so routing in September genuinely fears the Gulf
    coast more than routing in February does.

    Raises:
        ValueError: for a month outside 1..12.
    """
    from ..risk.historical import HistoricalRiskModel

    if not 1 <= month <= 12:
        raise ValueError(f"month must be 1..12, got {month}")
    kdes = seasonal_kdes(month)
    weights = {
        event_type: seasonal_rate_multiplier(event_type, month)
        for event_type in kdes
    }
    return HistoricalRiskModel(kdes, weights)
