"""Traffic substrate: gravity-model demand and traffic-weighted metrics."""

from .gravity import TrafficMatrix, gravity_matrix
from .weighted import TrafficWeightedResult, traffic_weighted_ratios

__all__ = [
    "TrafficMatrix",
    "gravity_matrix",
    "TrafficWeightedResult",
    "traffic_weighted_ratios",
]
