"""Property-based tests for the statistics substrate."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geo.coords import GeoPoint
from repro.stats.divergence import jensen_shannon_discrete
from repro.stats.kde import GaussianKDE, points_to_array
from repro.stats.regression import linear_regression, r_squared
from tests.conftest import examples

lats = st.floats(min_value=25.0, max_value=49.0)
lons = st.floats(min_value=-124.0, max_value=-67.0)
points = st.builds(GeoPoint, lats, lons)
event_lists = st.lists(points, min_size=1, max_size=25)
bandwidths = st.floats(min_value=5.0, max_value=500.0)


class TestKdeProperties:
    @given(event_lists, bandwidths, points)
    @settings(max_examples=examples(60), deadline=None)
    def test_density_non_negative(self, events, bandwidth, query):
        kde = GaussianKDE(points_to_array(events), bandwidth)
        assert kde.density(query) >= 0.0

    @given(event_lists, bandwidths)
    @settings(max_examples=examples(40), deadline=None)
    def test_peak_at_events(self, events, bandwidth):
        """Density at some event location >= density far away."""
        kde = GaussianKDE(points_to_array(events), bandwidth)
        at_events = kde.density_array(points_to_array(events))
        far = kde.density(GeoPoint(25.0, -67.0))
        assert at_events.max() >= far - 1e-15

    @given(points, bandwidths)
    @settings(max_examples=examples(40), deadline=None)
    def test_single_event_radial_decay(self, center, bandwidth):
        from repro.geo.distance import destination_point

        kde = GaussianKDE(points_to_array([center]), bandwidth)
        densities = [
            kde.density(destination_point(center, 90.0, radius))
            for radius in (0.0, bandwidth, 2 * bandwidth, 4 * bandwidth)
        ]
        for closer, farther in zip(densities, densities[1:]):
            assert closer >= farther - 1e-18

    @given(event_lists, bandwidths, st.lists(points, min_size=1, max_size=8))
    @settings(max_examples=examples(40), deadline=None)
    def test_batch_matches_scalar(self, events, bandwidth, queries):
        kde = GaussianKDE(points_to_array(events), bandwidth)
        batch = kde.density_array(points_to_array(queries))
        for query, value in zip(queries, batch):
            assert math.isclose(
                kde.density(query), value, rel_tol=1e-9, abs_tol=1e-300
            )

    @given(
        event_lists,
        bandwidths,
        st.lists(points, min_size=1, max_size=10),
        st.floats(min_value=7.0, max_value=12.0),
    )
    @settings(max_examples=examples(60), deadline=None)
    def test_truncated_matches_exact_within_bound(
        self, events, bandwidth, queries, cutoff
    ):
        """Truncation error stays under the documented bound.

        The module docstring derives |truncated - exact| <=
        exp(-c^2/2) / (2 pi sigma^2) for cutoff c: dropped kernels each
        contribute < exp(-c^2/2) and the normaliser carries the 1/N.
        """
        events = points_to_array(events)
        exact = GaussianKDE(events, bandwidth, cutoff_sigmas=None)
        truncated = GaussianKDE(events, bandwidth, cutoff_sigmas=cutoff)
        latlon = points_to_array(queries)
        dense = exact.density_array(latlon)
        fast = truncated.density_array(latlon)
        bound = math.exp(-(cutoff**2) / 2.0) / (
            2.0 * math.pi * bandwidth**2
        )
        np.testing.assert_allclose(fast, dense, rtol=1e-9, atol=bound)
        # Truncation can only drop mass, never add it (up to float sum
        # reordering).
        assert np.all(fast <= dense * (1.0 + 1e-9) + 1e-300)

    @given(event_lists, bandwidths, st.lists(points, min_size=1, max_size=6))
    @settings(max_examples=examples(40), deadline=None)
    def test_log_density_truncation_lossless(self, events, bandwidth, queries):
        """The log path truncates only exact-zero kernels, so scores
        match dense mode to float-sum reordering."""
        events = points_to_array(events)
        exact = GaussianKDE(events, bandwidth, cutoff_sigmas=None)
        truncated = GaussianKDE(events, bandwidth)
        np.testing.assert_allclose(
            truncated.log_density_many(queries),
            exact.log_density_many(queries),
            rtol=1e-12,
            atol=1e-12,
        )


def _distributions(size):
    return st.lists(
        st.floats(min_value=0.01, max_value=10.0), min_size=size, max_size=size
    ).map(lambda ws: [w / sum(ws) for w in ws])


class TestDivergenceProperties:
    @given(_distributions(5), _distributions(5))
    @settings(max_examples=examples(60), deadline=None)
    def test_js_symmetric_and_bounded(self, p, q):
        forward = jensen_shannon_discrete(p, q)
        backward = jensen_shannon_discrete(q, p)
        assert abs(forward - backward) < 1e-12
        assert -1e-12 <= forward <= math.log(2.0) + 1e-12


class TestRegressionProperties:
    xy_lists = st.lists(
        st.tuples(
            st.floats(-100.0, 100.0),
            st.floats(-100.0, 100.0),
        ),
        min_size=3,
        max_size=30,
    )

    @given(xy_lists)
    @settings(max_examples=examples(60), deadline=None)
    # An x spread of one subnormal: the slope overflowed to inf.
    @example(pairs=[(0.0, 0.0), (5e-324, 100.0), (0.0, 0.0)])
    def test_r_squared_in_unit_interval(self, pairs):
        x = [a for a, _ in pairs]
        y = [b for _, b in pairs]
        fit = linear_regression(x, y)
        assert 0.0 <= fit.r_squared <= 1.0 + 1e-12

    @given(
        st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=20, unique=True),
        st.floats(-5.0, 5.0),
        st.floats(-10.0, 10.0),
    )
    @settings(max_examples=examples(60), deadline=None)
    # Constant y whose mean rounds: ~1e-18 of deviation over an x
    # spread of 2e-109 was read as slope 7.9e75.
    @example(x=[0.0, 1.95e-109, 3.18e-127], slope=0.0, intercept=0.045)
    # Squared deviations of ~1e-293 underflowed: R^2 0.0 for a line.
    @example(x=[0.0, 1.0, 2.0], slope=2.1808432187908316e-293, intercept=0.0)
    # Lines that rounding y to floats flattens or bends: no fit, and no
    # exact arithmetic on the rounded data, recovers them.
    @example(x=[0.0, 1.0, 0.5], slope=1e-12, intercept=8.0)
    @example(x=[0.0, 6.373984988025233e-19, 1.3367498673837226e-101],
             slope=1.0, intercept=1.0)
    @example(x=[0.0, 2.0, 44.5], slope=5e-324, intercept=0.0)
    def test_exact_line_recovered(self, x, slope, intercept):
        y = [slope * v + intercept for v in x]
        fit = linear_regression(x, y)
        # Rounding moves each y by up to an ulp of max|y| (at least the
        # smallest subnormal), which bounds the slope error by ~3 ulp /
        # x spread and 1 - R^2 by 8 n ulp^2 / rise^2.
        rise = max(y) - min(y)
        ulp = max(max(abs(v) for v in y) * 2.0 ** -52, 5e-324)
        if rise > 1e7 * ulp:
            assert abs(fit.slope - slope) < 1e-6 * max(1.0, abs(slope))
            assert fit.r_squared > 1.0 - 1e-9
        else:
            # The rounded points no longer carry the line; the fit may
            # not claim more slope than their rise supports (any OLS
            # slope is at most 2 n rise / x spread).
            assert abs(fit.slope) <= 2 * len(x) * rise / (max(x) - min(x))

    @given(xy_lists)
    @settings(max_examples=examples(40), deadline=None)
    def test_fit_beats_mean_predictor(self, pairs):
        """OLS predictions can never explain less variance than y-bar."""
        x = [a for a, _ in pairs]
        y = [b for _, b in pairs]
        fit = linear_regression(x, y)
        mean_prediction = [sum(y) / len(y)] * len(y)
        assert fit.r_squared >= r_squared(y, mean_prediction) - 1e-12
