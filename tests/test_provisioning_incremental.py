"""The incremental provisioning layer: exactness and parity.

The in-place edge-insertion update must track a from-scratch
``_ComponentMatrices`` rebuild (DESIGN.md section 9), and the rewritten
candidate/greedy/scoring paths must reproduce what the rebuild-per-
iteration implementation computed.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.provisioning import (
    ProvisioningAnalyzer,
    ProvisioningStats,
    _ComponentMatrices,
    candidate_links,
)
from repro.engine import RoutingEngine
from repro.geo.distance import haversine_miles
from repro.graph.shortest_path import all_pairs_shortest_paths
from repro.risk.model import RiskModel
from repro.topology.builders import build_network
from repro.topology.cities import ALL_CITIES
from repro.topology.zoo import network_by_name
from tests.conftest import examples


def _engine(network, model):
    return RoutingEngine(network.distance_graph(), model)


city_subsets = st.lists(
    st.sampled_from(list(ALL_CITIES[:60])), min_size=6, max_size=14, unique=True
)


class TestIncrementalExactness:
    @given(city_subsets, st.integers(1, 4), st.integers(0, 2**31 - 1))
    @settings(max_examples=examples(12), deadline=None)
    def test_incremental_matches_rebuild_on_gabriel_meshes(
        self, cities, k, seed
    ):
        network = build_network("prop", cities, len(cities), 3.0)
        pop_ids = network.pop_ids()
        weight = sum(range(1, len(pop_ids) + 1))
        model = RiskModel(
            {p: (i + 1) / weight for i, p in enumerate(pop_ids)},
            {p: 0.01 * ((i * 7) % 5) for i, p in enumerate(pop_ids)},
            {p: 0.02 * ((i * 3) % 7) for i, p in enumerate(pop_ids)},
        )
        matrices = _ComponentMatrices(network, _engine(network, model))
        assert matrices.connected
        rng = random.Random(seed)
        pop_ids = network.pop_ids()
        committed = 0
        attempts = 0
        while committed < k and attempts < 200:
            attempts += 1
            pop_a, pop_b = rng.sample(pop_ids, 2)
            if network.has_link(pop_a, pop_b):
                continue
            link = network.add_link(pop_a, pop_b)
            matrices.commit_link(
                _engine(network, model), pop_a, pop_b, link.length_miles
            )
            committed += 1
        fresh = _ComponentMatrices(network, _engine(network, model))
        np.testing.assert_allclose(
            matrices.dist, fresh.dist, rtol=1e-9, atol=1e-9
        )
        np.testing.assert_allclose(
            matrices.risk, fresh.risk, rtol=1e-9, atol=1e-9
        )

    def test_verify_reports_tiny_deviation(self):
        network = network_by_name("Sprint")
        model = RiskModel.for_network(network)
        working = network.copy()
        matrices = _ComponentMatrices(
            working, _engine(working, model), with_candidates=True
        )
        stats = ProvisioningStats()
        choice = matrices.candidate_list()[0]
        link = working.add_link(choice.pop_a, choice.pop_b)
        engine = _engine(working, model)
        matrices.commit_link(
            engine, choice.pop_a, choice.pop_b, link.length_miles,
            stats=stats,
        )
        deviation = matrices.verify(working, engine, stats=stats)
        assert deviation < 1e-8
        assert stats.verifications == 1
        assert stats.max_verify_deviation == deviation
        assert stats.matrix_updates == 1
        assert stats.sweeps_run > 0


class TestGreedyParity:
    @pytest.mark.parametrize("name", ["Sprint", "Level3"])
    def test_greedy_matches_rebuild_path(self, name):
        count = 4 if name == "Level3" else 6
        network = network_by_name(name)
        model = RiskModel.for_network(network)
        fast = ProvisioningAnalyzer(network, model).greedy_links(count)
        slow = ProvisioningAnalyzer(network, model).greedy_links(
            count, incremental=False
        )
        assert [
            (r.candidate.pop_a, r.candidate.pop_b) for r in fast
        ] == [(r.candidate.pop_a, r.candidate.pop_b) for r in slow]
        for a, b in zip(fast, slow):
            assert a.aggregate_bit_risk == pytest.approx(
                b.aggregate_bit_risk, rel=1e-9
            )
            assert a.baseline_bit_risk == pytest.approx(
                b.baseline_bit_risk, rel=1e-9
            )

    def test_verify_every_knob_matches_default(self):
        network = network_by_name("Sprint")
        model = RiskModel.for_network(network)
        analyzer = ProvisioningAnalyzer(network, model)
        checked = analyzer.greedy_links(5, verify_every=2)
        plain = ProvisioningAnalyzer(network, model).greedy_links(5)
        assert [r.candidate for r in checked] == [r.candidate for r in plain]
        assert analyzer.stats.verifications == 2
        assert analyzer.stats.max_verify_deviation < 1e-8


class TestCandidateLinksVectorized:
    def test_matches_scalar_reference(self):
        network = network_by_name("Sprint")
        got = candidate_links(network)
        # The historical scalar implementation, inlined as the oracle.
        graph = network.distance_graph()
        pops = network.pops()
        sweeps = all_pairs_shortest_paths(graph)
        reference = {}
        for i, pop_a in enumerate(pops):
            dist_map = sweeps[pop_a.pop_id][0]
            for pop_b in pops[i + 1 :]:
                if network.has_link(pop_a.pop_id, pop_b.pop_id):
                    continue
                if pop_b.pop_id not in dist_map:
                    continue
                direct = haversine_miles(pop_a.location, pop_b.location)
                current = dist_map[pop_b.pop_id]
                if direct > 2000.0 or current <= 0.0:
                    continue
                if direct / current < (1.0 - 0.15):
                    reference[(pop_a.pop_id, pop_b.pop_id)] = (
                        direct, current,
                    )
        assert {
            (c.pop_a, c.pop_b) for c in got
        } == set(reference)
        for c in got:
            direct, current = reference[(c.pop_a, c.pop_b)]
            assert c.length_miles == pytest.approx(direct, rel=1e-9)
            assert c.current_route_miles == pytest.approx(current, rel=1e-9)

    def test_candidate_total_matches_recomputation(self):
        network = network_by_name("Sprint")
        model = RiskModel.for_network(network)
        analyzer = ProvisioningAnalyzer(network, model)
        ranked = analyzer.rank_candidates(top=3)
        for rec in ranked:
            working = network.copy()
            working.add_link(rec.candidate.pop_a, rec.candidate.pop_b)
            actual = ProvisioningAnalyzer(working, model).aggregate_bit_risk()
            assert rec.aggregate_bit_risk == pytest.approx(actual, rel=0.02)


class TestComponentArrays:
    def test_bit_equal_to_materialised_routes(self):
        network = network_by_name("Sprint")
        model = RiskModel.for_network(network)
        engine = _engine(network, model)
        source = network.pop_ids()[0]
        from repro.core.strategy import SweepStrategy

        routes = engine.risk_routes_from(source, SweepStrategy.PER_SOURCE)
        dist, risk, reached = engine.component_arrays(
            source, engine.expected_impact(source)
        )
        for target, route in routes.items():
            t = engine.index_of(target)
            assert reached[t]
            # Same float-summation order as the per-path walk: bit-equal.
            assert dist[t] == route.metrics.distance_miles
            assert risk[t] == route.metrics.risk_sum


class TestStatsAccounting:
    def test_greedy_counts_avoided_sweeps(self):
        network = network_by_name("Sprint")
        analyzer = ProvisioningAnalyzer(
            network, RiskModel.for_network(network)
        )
        recs = analyzer.greedy_links(3)
        assert len(recs) == 3
        stats = analyzer.stats
        assert stats.matrix_builds == 1
        assert stats.matrix_updates == 3
        assert stats.sweeps_run > 0
        assert stats.sweeps_avoided > 0
        assert stats.candidates_scored > 0
        assert stats.verifications == 0
