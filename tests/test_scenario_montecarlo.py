"""Monte Carlo driver: seeded determinism and report shape.

All randomness is drawn up front from one generator, and the scenarios
then play as pure computation in draw order — so the same seed must
produce byte-identical reports.  That invariant is what lets the
`scenario` op answer identically from the single-process server and
every shard.
"""

from __future__ import annotations

import json

import pytest

from repro.scenario import CascadeConfig, ScenarioConfig, run_monte_carlo
from tests.conftest import build_diamond_model, build_diamond_network

N = 30


def _run(**overrides):
    config = ScenarioConfig(**{
        "scenarios": N, "seed": 11, "sample_pairs": 10, **overrides
    })
    return run_monte_carlo(
        build_diamond_network(), build_diamond_model(), config
    )


class TestDeterminism:
    def test_same_seed_replays_the_report(self):
        assert _run().as_dict() == _run().as_dict()

    def test_seed_changes_the_draw(self):
        assert _run().as_dict() != _run(seed=12).as_dict()


class TestReportShape:
    def test_event_counts_partition_the_run(self):
        report = _run()
        assert report.scenarios == N
        assert report.srg_activations + report.disaster_events == N
        assert report.srg_groups > 0
        for metrics in (report.shortest, report.riskroute):
            assert metrics.scenarios == N
            assert sum(metrics.depth_distribution.values()) == N
            assert 0.0 <= metrics.route_survival <= 1.0
            assert metrics.demand_survival + metrics.unserved_demand == (
                pytest.approx(1.0)
            )
            if metrics.partitions:
                assert metrics.mttf_events == pytest.approx(
                    N / metrics.partitions
                )
            else:
                assert metrics.mttf_events is None

    def test_srg_fraction_zero_is_pure_disasters(self):
        report = _run(srg_fraction=0.0)
        assert report.srg_activations == 0
        assert report.disaster_events == N

    def test_as_dict_is_json_serialisable(self):
        payload = _run().as_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["survival_improvement"] == pytest.approx(
            payload["riskroute"]["route_survival"]
            - payload["shortest"]["route_survival"]
        )

    def test_defense_knob_threads_through(self):
        defended = _run(cascade=CascadeConfig(redistribute=True))
        naive = _run(cascade=CascadeConfig(redistribute=False))
        assert (
            naive.riskroute.mean_cascade_depth
            > defended.riskroute.mean_cascade_depth
        )


class TestValidation:
    @pytest.mark.parametrize("overrides", [
        {"scenarios": 0},
        {"srg_fraction": 1.5},
        {"srg_fraction": -0.1},
        {"seed": -1},
        {"corridor_miles": 0},
        {"sample_pairs": 0},
    ])
    def test_bad_config_rejected(self, overrides):
        with pytest.raises(ValueError):
            ScenarioConfig(**overrides)
