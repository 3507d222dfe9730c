"""Tests for repro.stats.divergence."""

import math

import pytest

from repro.stats.divergence import empirical_kl_from_loglik, jensen_shannon_discrete


class TestEmpiricalKL:
    def test_negative_mean_loglik(self):
        assert empirical_kl_from_loglik([-2.0, -4.0]) == pytest.approx(3.0)

    def test_better_fit_scores_lower(self):
        good = empirical_kl_from_loglik([-1.0, -1.0])
        bad = empirical_kl_from_loglik([-5.0, -5.0])
        assert good < bad

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_kl_from_loglik([])


class TestJensenShannon:
    def test_identical_is_zero(self):
        p = [0.3, 0.7]
        assert jensen_shannon_discrete(p, p) == pytest.approx(0.0)

    def test_symmetric(self):
        p = [0.9, 0.1]
        q = [0.2, 0.8]
        assert jensen_shannon_discrete(p, q) == pytest.approx(
            jensen_shannon_discrete(q, p)
        )

    def test_bounded_by_ln2(self):
        assert jensen_shannon_discrete([1.0, 0.0], [0.0, 1.0]) == pytest.approx(
            math.log(2.0)
        )

    def test_finite_with_disjoint_support(self):
        value = jensen_shannon_discrete([1.0, 0.0], [0.0, 1.0])
        assert math.isfinite(value)
