"""Kernel bandwidth training by 5-way cross validation (Table 1).

Following Section 5.2 of the paper, the single tuning parameter of each
disaster-class KDE is its bandwidth.  We pick it by k-fold cross
validation: for each candidate bandwidth, fit a KDE on the training folds
and score the held-out fold by KL divergence (equivalently, negative mean
held-out log-likelihood; see :mod:`repro.stats.divergence`).  The
bandwidth with the lowest mean held-out score wins.

Event catalogs range from thousands (earthquakes) to >100k entries
(wind).  Cross-validating the full wind catalog would be quadratic in N,
so a catalog is subsampled to :data:`MAX_EVENTS` rows with a seeded
generator — the selected bandwidth is insensitive to this beyond the
second decimal because the score curve is smooth in log-bandwidth.

Rather than materialising a fresh training list and KDE per (candidate x
fold) pair, the search builds **one** KDE (and one spatial bucket index)
per candidate over the full working set and scores each fold through
:meth:`~repro.stats.kde.GaussianKDE.holdout_log_density`, which masks the
held-out rows out of the kernel sum.  Log scoring truncates only at the
``exp``-underflow radius, where dropped kernels are exact float zeros —
so fold scores match the rebuild-per-fold dense computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .divergence import empirical_kl_from_loglik
from .kde import GaussianKDE

__all__ = ["BandwidthSearchResult", "cross_validate_bandwidth", "log_space_candidates"]

#: Cross-validation folds (the paper uses 5).
N_FOLDS = 5

#: Subsample cap on the events a search scores, for tractability on
#: huge catalogs.
MAX_EVENTS = 2500

#: Seed of the fold shuffle and the subsample.
SEED = 7


def log_space_candidates(
    low_miles: float, high_miles: float, count: int
) -> List[float]:
    """Logarithmically spaced candidate bandwidths in miles."""
    if low_miles <= 0 or high_miles <= low_miles:
        raise ValueError("need 0 < low_miles < high_miles")
    if count < 2:
        raise ValueError("need at least two candidates")
    return [float(b) for b in np.geomspace(low_miles, high_miles, count)]


@dataclass(frozen=True)
class BandwidthSearchResult:
    """Outcome of a cross-validated bandwidth search."""

    best_bandwidth_miles: float
    candidates: Tuple[float, ...]
    scores: Tuple[float, ...]
    n_events_used: int


def cross_validate_bandwidth(
    latlon_deg: "np.ndarray", candidates: Sequence[float]
) -> BandwidthSearchResult:
    """Select a KDE bandwidth by :data:`N_FOLDS`-fold cross validation
    over at most :data:`MAX_EVENTS` events.

    Args:
        latlon_deg: the event catalog, an (N, 2) array of (lat, lon)
            degree rows.
        candidates: bandwidths (miles) to score.

    Returns:
        A :class:`BandwidthSearchResult`; ties on score break toward the
        smaller bandwidth for determinism.

    Raises:
        ValueError: if there are fewer events than folds or no candidates.
    """
    if not candidates:
        raise ValueError("need at least one candidate bandwidth")
    working = np.asarray(latlon_deg, dtype=np.float64)
    if len(working) < N_FOLDS:
        raise ValueError(
            f"need at least {N_FOLDS} events, got {len(working)}"
        )

    rng = np.random.default_rng(SEED)
    if len(working) > MAX_EVENTS:
        picks = rng.choice(len(working), size=MAX_EVENTS, replace=False)
        working = working[np.sort(picks)]

    order = rng.permutation(len(working))
    folds = [order[i::N_FOLDS] for i in range(N_FOLDS)]
    scores: List[float] = []
    for bandwidth in candidates:
        # One KDE — and one bucket index — per candidate; every fold
        # reuses it, scoring the held-out rows against the masked
        # complement (same result as fitting on the training folds).
        kde = GaussianKDE(working, bandwidth)
        fold_scores = [
            empirical_kl_from_loglik(kde.holdout_log_density(held_out))
            for held_out in folds
        ]
        scores.append(float(np.mean(fold_scores)))

    best_index = min(
        range(len(candidates)), key=lambda i: (scores[i], candidates[i])
    )
    return BandwidthSearchResult(
        best_bandwidth_miles=float(candidates[best_index]),
        candidates=tuple(float(c) for c in candidates),
        scores=tuple(scores),
        n_events_used=len(working),
    )
