"""The composed risk model behind the bit-risk-miles metric.

A :class:`RiskModel` holds, for every PoP in scope, the three ingredients
of Equation 1 — the population share ``c_i``, the historical risk
``o_h(i)`` and the forecasted risk ``o_f(i)`` — together with the tuning
parameters ``gamma_h`` and ``gamma_f``.  It can be built for a single
network (intradomain) or for a merged interdomain topology, and it is the
only object the core RiskRoute optimizer needs besides the distance
graph.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Sequence

from ..population.assignment import network_population_shares
from ..topology.interdomain import InterdomainTopology
from ..topology.network import Network
from .historical import HistoricalRiskModel, default_historical_model

__all__ = ["RiskModel", "DEFAULT_GAMMA_H", "DEFAULT_GAMMA_F"]

#: The paper's default historical-risk tuning parameter (Section 5).
DEFAULT_GAMMA_H = 1e5
#: The paper's default forecast-risk tuning parameter (Section 5).
DEFAULT_GAMMA_F = 1e3


def _check_input(name: str, value: float) -> None:
    # NaN fails both comparisons, so it is caught with the infinities.
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {value}")


def _check_gammas(gamma_h: float, gamma_f: float) -> None:
    _check_input("gamma_h", gamma_h)
    _check_input("gamma_f", gamma_f)


class RiskModel:
    """Per-PoP risk state plus the gamma knobs.

    Instances are cheap value objects: derive variants with
    :meth:`with_gammas`, :meth:`with_forecast_risk` and
    :meth:`with_historical_risk` instead of rebuilding the underlying
    KDE and census machinery.  Calm weather (``o_f = 0``) is the
    built models' forecast; a forecast field enters by swap.

    Raises:
        ValueError: when a gamma, share, ``o_h`` or ``o_f`` is negative
            or not finite (the message names the gamma or the PoP), or
            when the three maps cover different PoP ids.
    """

    def __init__(
        self,
        shares: Mapping[str, float],
        historical_risk: Mapping[str, float],
        forecast_risk: Mapping[str, float],
        gamma_h: float = DEFAULT_GAMMA_H,
        gamma_f: float = DEFAULT_GAMMA_F,
    ) -> None:
        _check_gammas(gamma_h, gamma_f)
        keys = set(shares)
        if set(historical_risk) != keys or set(forecast_risk) != keys:
            raise ValueError(
                "shares, historical_risk and forecast_risk must cover the "
                "same PoP ids"
            )
        for name, values in (
            ("share", shares), ("o_h", historical_risk), ("o_f", forecast_risk)
        ):
            for pop_id, value in values.items():
                _check_input(f"{name} of PoP {pop_id!r}", value)
        self._shares = dict(shares)
        self._oh = dict(historical_risk)
        self._of = dict(forecast_risk)
        self.gamma_h = float(gamma_h)
        self.gamma_f = float(gamma_f)

    # -- construction --------------------------------------------------------

    @classmethod
    def for_network(
        cls,
        network: Network,
        historical: Optional[HistoricalRiskModel] = None,
        gamma_h: float = DEFAULT_GAMMA_H,
        gamma_f: float = DEFAULT_GAMMA_F,
    ) -> "RiskModel":
        """Build the intradomain model of one network.

        ``historical`` defaults to the five-class corpus model, whose
        ``o_h`` vectors are memoized per network content.  A bad gamma
        is rejected before any share or ``o_h`` is computed.
        """
        _check_gammas(gamma_h, gamma_f)
        if historical is None:
            historical = default_historical_model()
        return cls(
            shares=network_population_shares(network),
            historical_risk=historical.pop_risks(network),
            forecast_risk=dict.fromkeys(network.pop_ids(), 0.0),
            gamma_h=gamma_h,
            gamma_f=gamma_f,
        )

    @classmethod
    def for_interdomain(cls, topology: InterdomainTopology) -> "RiskModel":
        """Build the merged model of an interdomain topology, from the
        five-class corpus model at the default gammas.

        Shares come from each network's own (footprint-confined)
        population assignment, so a regional PoP's impact reflects the
        population it actually serves.
        """
        historical = default_historical_model()
        shares: Dict[str, float] = {}
        oh: Dict[str, float] = {}
        for network in topology.networks.values():
            shares.update(network_population_shares(network))
            oh.update(historical.pop_risks(network))
        return cls(shares, oh, dict.fromkeys(shares, 0.0))

    # -- variants --------------------------------------------------------

    def with_gammas(self, gamma_h: float, gamma_f: float) -> "RiskModel":
        """Same risk state, different tuning parameters."""
        return RiskModel(self._shares, self._oh, self._of, gamma_h, gamma_f)

    def with_forecast_risk(
        self, forecast_risk: Mapping[str, float]
    ) -> "RiskModel":
        """Same shares and history, new per-PoP forecast risk.

        Raises:
            ValueError: if the new map does not cover the same PoPs, or
                holds a negative or non-finite value.
        """
        return RiskModel(
            self._shares, self._oh, forecast_risk, self.gamma_h, self.gamma_f
        )

    def with_historical_risk(
        self, historical_risk: Mapping[str, float]
    ) -> "RiskModel":
        """Same shares and forecast, new per-PoP historical risk.

        The streaming-ingest counterpart of :meth:`with_forecast_risk`:
        an ingest recomputes ``o_h`` incrementally and swaps it in here.

        Raises:
            ValueError: if the new map does not cover the same PoPs, or
                holds a negative or non-finite value.
        """
        return RiskModel(
            self._shares, historical_risk, self._of, self.gamma_h, self.gamma_f
        )

    # -- per-PoP state --------------------------------------------------------

    def pop_ids(self) -> Sequence[str]:
        """All PoP ids in the model, insertion order."""
        return list(self._shares)

    def share(self, pop_id: str) -> float:
        """Population share ``c_i``."""
        if pop_id not in self._shares:
            raise KeyError(f"unknown PoP {pop_id!r}")
        return self._shares[pop_id]

    def impact(self, pop_i: str, pop_j: str) -> float:
        """Pair impact ``alpha_ij = c_i + c_j``."""
        return self.share(pop_i) + self.share(pop_j)

    def historical_risk(self, pop_id: str) -> float:
        """``o_h`` at the PoP."""
        if pop_id not in self._oh:
            raise KeyError(f"unknown PoP {pop_id!r}")
        return self._oh[pop_id]

    def forecast_risk(self, pop_id: str) -> float:
        """``o_f`` at the PoP."""
        if pop_id not in self._of:
            raise KeyError(f"unknown PoP {pop_id!r}")
        return self._of[pop_id]

    def node_risk(self, pop_id: str) -> float:
        """The gamma-scaled risk charged when a route traverses the PoP:
        ``gamma_h * o_h + gamma_f * o_f``."""
        return (
            self.gamma_h * self.historical_risk(pop_id)
            + self.gamma_f * self.forecast_risk(pop_id)
        )
