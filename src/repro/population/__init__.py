"""Population substrate: synthetic census data and PoP assignment."""

from .assignment import assign_population, network_population_shares
from .census import PAPER_BLOCK_COUNT, CensusData, synthetic_census

__all__ = [
    "CensusData",
    "synthetic_census",
    "PAPER_BLOCK_COUNT",
    "assign_population",
    "network_population_shares",
]
