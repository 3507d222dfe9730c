"""Statistics substrate: KDE, bandwidth selection, divergences, regression."""

from .bandwidth import (
    BandwidthSearchResult,
    cross_validate_bandwidth,
    log_space_candidates,
)
from .divergence import empirical_kl_from_loglik, jensen_shannon_discrete
from .kde import GaussianKDE, points_to_array
from .regression import LinearFit, linear_regression, r_squared
from .sampling import sample_gaussian_cluster, sample_mixture

__all__ = [
    "GaussianKDE",
    "points_to_array",
    "BandwidthSearchResult",
    "cross_validate_bandwidth",
    "log_space_candidates",
    "empirical_kl_from_loglik",
    "jensen_shannon_discrete",
    "LinearFit",
    "linear_regression",
    "r_squared",
    "sample_gaussian_cluster",
    "sample_mixture",
]
