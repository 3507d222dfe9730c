"""Shared-risk-group and cascading-failure scenario plane.

The paper scores outages as independent per-PoP risks; real damage is
correlated twice over: links that share a conduit corridor fail
together (:mod:`repro.scenario.srg`), and the traffic a failed element
was carrying lands on its neighbors, which can overload and trip in
turn (:mod:`repro.scenario.cascade`).  The Monte Carlo driver
(:mod:`repro.scenario.montecarlo`) plays a seeded scenario draw and
reports resilience metrics — route and demand survival, expected
unserved demand, cascade-depth distribution, and an MTTF-style
time-to-partition — for RiskRoute versus shortest-path provisioning.
"""

from .cascade import CascadeConfig, CascadeResult, CascadeSimulator
from .montecarlo import (
    PolicyMetrics,
    ScenarioConfig,
    ScenarioReport,
    run_monte_carlo,
)
from .srg import SharedRiskGroup, SrgIndex, corridor_grid, infer_srgs

__all__ = [
    "CascadeConfig",
    "CascadeResult",
    "CascadeSimulator",
    "PolicyMetrics",
    "ScenarioConfig",
    "ScenarioReport",
    "SharedRiskGroup",
    "SrgIndex",
    "corridor_grid",
    "infer_srgs",
    "run_monte_carlo",
]
