"""Risk layer: historical and forecasted models, composed with the
population shares."""

from .forecasted import ForecastedRiskModel
from .historical import HistoricalRiskModel, default_historical_model
from .model import DEFAULT_GAMMA_F, DEFAULT_GAMMA_H, RiskModel

__all__ = [
    "HistoricalRiskModel",
    "default_historical_model",
    "ForecastedRiskModel",
    "RiskModel",
    "DEFAULT_GAMMA_H",
    "DEFAULT_GAMMA_F",
]
