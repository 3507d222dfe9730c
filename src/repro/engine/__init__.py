"""The batched routing engine subsystem.

Freezes a topology into flat CSR arrays once, memoizes per-source
risk-weighted Dijkstra sweeps keyed by (alpha, source) on the
engine that owns the topology, and invalidates cached sweeps when the
risk field changes.

:class:`repro.session.RoutingSession` is the blessed user-facing entry
point; this package is the machinery underneath it.
"""

from ..core.strategy import SweepStrategy, resolve_strategy
from .arrays import CsrGraph
from .cache import EngineConfig
from .components import (
    ProvisioningStats,
    parametric_component_table,
    sweep_component_arrays,
)
from .engine import RoutingEngine
from .fingerprint import risk_fingerprint
from .sweep import SweepResult, csr_sweep

__all__ = [
    "RoutingEngine",
    "EngineConfig",
    "SweepStrategy",
    "resolve_strategy",
    "ProvisioningStats",
    "sweep_component_arrays",
    "parametric_component_table",
    "risk_fingerprint",
    "CsrGraph",
    "SweepResult",
    "csr_sweep",
]
