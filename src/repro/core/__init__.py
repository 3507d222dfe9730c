"""The paper's contribution: bit-risk miles, RiskRoute, provisioning."""

from .backup import BackupPath, frr_backup_next_hops, mpls_link_failover
from .bitrisk import PathMetrics, path_metrics
from .characteristics import (
    CHARACTERISTIC_NAMES,
    NetworkCharacteristics,
    characteristic_r_squared,
    characteristics_of,
)
from .interdomain import (
    InterdomainRouter,
    corpus_merge,
    regional_pair_population,
)
from .provisioning import (
    CandidateLink,
    LinkRecommendation,
    PeeringRecommendation,
    ProvisioningAnalyzer,
    ProvisioningStats,
    best_new_peering,
)
from .monitoring import MonitorPlacement, coverage_of, place_monitors
from .ospf import OspfWeightTable, export_ospf_weights, ospf_fidelity
from .ratios import RatioResult, ratios_over_pairs
from .riskroute import PairRoutes, RouteResult
from .strategy import SweepStrategy, resolve_strategy
from .sharedrisk import SharedRiskReport, shared_risk_report
from .simulation import (
    SimulatedDisaster,
    SurvivalReport,
    failed_pops,
    route_survival,
    sample_disasters,
)

__all__ = [
    "PathMetrics",
    "path_metrics",
    "RouteResult",
    "PairRoutes",
    "SweepStrategy",
    "resolve_strategy",
    "RatioResult",
    "ratios_over_pairs",
    "InterdomainRouter",
    "corpus_merge",
    "regional_pair_population",
    "CandidateLink",
    "LinkRecommendation",
    "PeeringRecommendation",
    "ProvisioningAnalyzer",
    "ProvisioningStats",
    "best_new_peering",
    "NetworkCharacteristics",
    "characteristics_of",
    "characteristic_r_squared",
    "CHARACTERISTIC_NAMES",
    "BackupPath",
    "mpls_link_failover",
    "frr_backup_next_hops",
    "OspfWeightTable",
    "export_ospf_weights",
    "ospf_fidelity",
    "SharedRiskReport",
    "shared_risk_report",
    "SimulatedDisaster",
    "SurvivalReport",
    "sample_disasters",
    "failed_pops",
    "route_survival",
    "MonitorPlacement",
    "place_monitors",
    "coverage_of",
]
