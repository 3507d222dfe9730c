"""RiskRoute: a framework for mitigating network outage threats.

A full reproduction of Eriksson, Durairajan & Barford, *RiskRoute: A
Framework for Mitigating Network Outage Threats* (ACM CoNEXT 2013),
including every substrate the paper depends on: a 23-network US topology
corpus, synthetic census population, FEMA/NOAA disaster catalogs with
trained kernel density fields, NHC-style hurricane advisories with an
NLP parser, and the RiskRoute optimization framework itself.

Typical entry point — a :class:`RoutingSession` binds one network to one
risk model and answers every RiskRoute question through the shared,
cached routing engine::

    from repro import RoutingSession, network_by_name

    session = RoutingSession(network_by_name("Teliasonera"))
    pair = session.pair(*session.network.pop_ids()[:2])
    ratios = session.all_pairs()          # Equations 5-6
    links = session.provision(k=3)        # Equation 4, greedy
"""

from .core import (
    InterdomainRouter,
    PairRoutes,
    ProvisioningAnalyzer,
    RatioResult,
    RouteResult,
    SweepStrategy,
    best_new_peering,
    corpus_merge,
)
from .engine import EngineConfig, RoutingEngine
from .session import RoutingSession
from .risk import (
    DEFAULT_GAMMA_F,
    DEFAULT_GAMMA_H,
    ForecastedRiskModel,
    HistoricalRiskModel,
    RiskModel,
    default_historical_model,
)
from .topology import (
    InterdomainTopology,
    Network,
    all_networks,
    corpus_peering,
    network_by_name,
    regional_networks,
    tier1_networks,
)

try:
    # Source the version from installed package metadata (pyproject is
    # the single authority); fall back for PYTHONPATH=src checkouts.
    from importlib.metadata import version as _dist_version

    __version__ = _dist_version("repro")
except Exception:  # pragma: no cover - uninstalled source tree
    __version__ = "1.0.0"

__all__ = [
    "__version__",
    "Network",
    "network_by_name",
    "all_networks",
    "tier1_networks",
    "regional_networks",
    "corpus_peering",
    "InterdomainTopology",
    "RiskModel",
    "HistoricalRiskModel",
    "ForecastedRiskModel",
    "default_historical_model",
    "DEFAULT_GAMMA_H",
    "DEFAULT_GAMMA_F",
    "RouteResult",
    "PairRoutes",
    "RatioResult",
    "RoutingSession",
    "RoutingEngine",
    "EngineConfig",
    "SweepStrategy",
    "InterdomainRouter",
    "ProvisioningAnalyzer",
    "best_new_peering",
    "corpus_merge",
]
