"""Divergence measures between distributions.

The paper selects kernel bandwidths by 5-way cross validation with the
Kullback-Leibler divergence as the distance metric (Section 5.2).  For a
held-out empirical sample, minimising the KL divergence from the sample to
the fitted density is equivalent to maximising the mean held-out
log-likelihood, which is the form provided here.  The Jensen-Shannon
divergence compares two discrete risk profiles (shared-risk analysis).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "empirical_kl_from_loglik",
    "jensen_shannon_discrete",
]


def empirical_kl_from_loglik(log_likelihoods: Sequence[float]) -> float:
    """KL divergence (up to the unknown entropy constant) of a held-out
    sample from a fitted density.

    KL(P_data || Q_model) = -H(P_data) - E_P[log q(x)].  The entropy term
    is constant across candidate bandwidths, so comparing bandwidths by
    this quantity is identical to comparing true KL divergences.  We
    report the negative mean log-likelihood.
    """
    arr = np.asarray(log_likelihoods, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one held-out log-likelihood")
    return float(-arr.mean())


def jensen_shannon_discrete(p: Sequence[float], q: Sequence[float]) -> float:
    """Jensen-Shannon divergence, a bounded symmetric alternative to KL.

    Provided for the extension experiments comparing risk fields between
    ISPs (shared-risk analysis); always finite and in [0, ln 2].
    """
    p_arr = np.asarray(p, dtype=np.float64)
    q_arr = np.asarray(q, dtype=np.float64)
    m = (p_arr + q_arr) / 2.0

    def _kl_safe(a: "np.ndarray", b: "np.ndarray") -> float:
        mask = a > 0
        return float(np.sum(a[mask] * np.log(a[mask] / b[mask])))

    return 0.5 * _kl_safe(p_arr, m) + 0.5 * _kl_safe(q_arr, m)
