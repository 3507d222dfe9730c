"""Tests for repro.stats.regression."""

import warnings

import pytest

from repro.stats.regression import linear_regression, r_squared


class TestLinearRegression:
    def test_perfect_line(self):
        fit = linear_regression([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(0.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_r_squared_matches_closed_form(self):
        # R^2 of a simple fit is Sxy^2 / (Sxx * Syy): here Sxy = 4.7,
        # Sxx = 5 and Syy = 4.5.
        fit = linear_regression([1.0, 2.0, 3.0, 4.0], [1.1, 1.9, 3.2, 3.8])
        assert fit.r_squared == pytest.approx(4.7**2 / (5.0 * 4.5), rel=1e-9)

    def test_intercept(self):
        fit = linear_regression([0.0, 1.0], [5.0, 7.0])
        assert fit.intercept == pytest.approx(5.0)
        assert fit.slope == pytest.approx(2.0)

    def test_no_trend_low_r2(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        y = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]
        fit = linear_regression(x, y)
        assert fit.r_squared < 0.2

    def test_constant_x(self):
        fit = linear_regression([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        assert fit.slope == 0.0
        assert fit.intercept == pytest.approx(2.0)
        assert fit.r_squared == 0.0

    def test_rounding_noise_in_constant_y_is_no_slope(self):
        # mean([0.045] * 3) rounds, leaving ~7e-18 of deviation.
        fit = linear_regression([0.0, 1.95e-109, 3.18e-127], [0.045] * 3)
        assert fit.slope == 0.0
        assert fit.intercept == pytest.approx(0.045)
        assert fit.r_squared == 0.0

    def test_rounding_noise_in_constant_x_is_a_vertical_stack(self):
        fit = linear_regression([0.045] * 3, [1.0, 2.0, 4.0])
        assert fit.slope == 0.0
        assert fit.intercept == pytest.approx(7.0 / 3.0)
        assert fit.r_squared == 0.0

    def test_tiny_genuine_spread_still_fits(self):
        # The tolerance is relative to the data's magnitude, so a real
        # spread far below 1e-16 in absolute terms is kept.
        fit = linear_regression([0.0, 1e-200, 2e-200], [1.0, 3.0, 5.0])
        assert fit.slope == pytest.approx(2e200)

    def test_overflowing_slope_is_a_vertical_stack(self):
        # An x spread of one subnormal under a y spread of 100: the
        # slope overflows float64, which used to give slope inf,
        # intercept nan and two RuntimeWarnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = linear_regression([0.0, 5e-324, 0.0], [0.0, 100.0, 0.0])
        assert fit.slope == 0.0
        assert fit.intercept == pytest.approx(100.0 / 3.0)
        assert fit.r_squared == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            linear_regression([1.0], [1.0, 2.0])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            linear_regression([1.0], [1.0])


class TestRSquared:
    def test_perfect_prediction(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_mean_prediction_zero(self):
        obs = [1.0, 2.0, 3.0]
        assert r_squared(obs, [2.0, 2.0, 2.0]) == pytest.approx(0.0)

    def test_clamped_at_zero(self):
        # Worse than the mean predictor: clamp instead of negative.
        assert r_squared([1.0, 2.0, 3.0], [30.0, -10.0, 50.0]) == 0.0

    def test_constant_observations(self):
        assert r_squared([5.0, 5.0], [5.0, 5.0]) == 0.0

    def test_tiny_magnitudes_do_not_underflow(self):
        obs = [0.0, 2e-293, 4e-293]
        assert r_squared(obs, obs) == pytest.approx(1.0)
        assert r_squared(obs, [2e-293] * 3) == pytest.approx(0.0)

    def test_constant_observations_with_rounding_noise(self):
        # mean([0.045] * 3) rounds; the noise is not variance.
        assert r_squared([0.045] * 3, [0.045] * 3) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            r_squared([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            r_squared([], [])
