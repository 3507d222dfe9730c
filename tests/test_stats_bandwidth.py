"""Tests for repro.stats.bandwidth."""

import numpy as np
import pytest

from repro.stats import bandwidth
from repro.stats.bandwidth import (
    cross_validate_bandwidth,
    log_space_candidates,
)


def clustered_events(n=120, spread_deg=0.3, seed=1):
    """An (n, 2) array of (lat, lon) rows around three centres."""
    rng = np.random.default_rng(seed)
    centers = [(35.0, -95.0), (40.0, -80.0), (30.0, -100.0)]
    out = []
    for i in range(n):
        lat, lon = centers[i % 3]
        out.append(
            (lat + rng.normal(0, spread_deg), lon + rng.normal(0, spread_deg))
        )
    return np.array(out).reshape(n, 2)


class TestCandidates:
    def test_log_space_endpoints(self):
        candidates = log_space_candidates(1.0, 100.0, 5)
        assert candidates[0] == pytest.approx(1.0)
        assert candidates[-1] == pytest.approx(100.0)
        assert len(candidates) == 5

    def test_log_space_monotone(self):
        candidates = log_space_candidates(2.0, 500.0, 9)
        assert candidates == sorted(candidates)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            log_space_candidates(10.0, 5.0, 3)
        with pytest.raises(ValueError):
            log_space_candidates(0.0, 5.0, 3)

    def test_too_few_candidates(self):
        with pytest.raises(ValueError):
            log_space_candidates(1.0, 10.0, 1)


class TestCrossValidation:
    def test_picks_reasonable_bandwidth(self):
        events = clustered_events()
        result = cross_validate_bandwidth(
            events, log_space_candidates(2.0, 2000.0, 10)
        )
        # Clusters are ~20 miles across; CV must not pick the extremes.
        assert 2.0 < result.best_bandwidth_miles < 2000.0

    def test_deterministic(self):
        events = clustered_events()
        candidates = log_space_candidates(5.0, 500.0, 6)
        r1 = cross_validate_bandwidth(events, candidates)
        r2 = cross_validate_bandwidth(events, candidates)
        assert r1.best_bandwidth_miles == r2.best_bandwidth_miles
        assert r1.scores == r2.scores

    def test_subsampling_cap(self, monkeypatch):
        monkeypatch.setattr(bandwidth, "MAX_EVENTS", 60)
        events = clustered_events(n=200)
        result = cross_validate_bandwidth(events, [50.0, 100.0])
        assert result.n_events_used == 60

    def test_no_candidates_rejected(self):
        with pytest.raises(ValueError):
            cross_validate_bandwidth(clustered_events(), [])

    def test_too_few_events_rejected(self):
        with pytest.raises(ValueError):
            cross_validate_bandwidth(clustered_events(4), [10.0])

    def test_scores_cover_all_candidates(self):
        events = clustered_events(n=60)
        candidates = [10.0, 50.0, 200.0]
        result = cross_validate_bandwidth(events, candidates)
        assert len(result.scores) == 3
        assert result.candidates == (10.0, 50.0, 200.0)

    def test_best_has_minimal_score(self):
        events = clustered_events(n=90)
        result = cross_validate_bandwidth(
            events, log_space_candidates(3.0, 800.0, 8)
        )
        best = result.candidates.index(result.best_bandwidth_miles)
        assert result.scores[best] == min(result.scores)
