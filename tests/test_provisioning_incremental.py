"""The incremental provisioning layer: exactness and parity.

The in-place edge-insertion update must track a from-scratch
``_ComponentMatrices`` rebuild (DESIGN.md section 9), and the greedy
loop must reproduce a step-by-step reference: rank the candidates, add
the best link, rebuild the matrices for the total.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import provisioning
from repro.core.provisioning import (
    ProvisioningAnalyzer,
    ProvisioningStats,
    _ComponentMatrices,
)
from repro.engine import RoutingEngine
from repro.geo.coords import GeoPoint
from repro.geo.distance import haversine_miles
from repro.graph.shortest_path import all_pairs_shortest_paths
from repro.risk.model import RiskModel
from repro.topology.builders import build_network
from repro.topology.cities import ALL_CITIES
from repro.topology.network import Network, PoP
from repro.topology.zoo import network_by_name
from tests.conftest import examples


def _engine(network, model):
    return RoutingEngine(network.distance_graph(), model)


def _stepwise_greedy(network, model, count):
    """The greedy reference, one link at a time: ``(candidate, total)``
    per step from ``rank_candidates(top=1)`` on the current topology and
    a from-scratch ``_ComponentMatrices`` after adding its link."""
    working = network.copy()
    out = []
    for _ in range(count):
        ranked = ProvisioningAnalyzer(working, model).rank_candidates(top=1)
        if not ranked:
            break
        candidate = ranked[0].candidate
        working.add_link(candidate.pop_a, candidate.pop_b)
        total = _ComponentMatrices(
            working, _engine(working, model)
        ).baseline_total()
        out.append((candidate, total))
    return out


def _assert_matches_stepwise(analyzer, count, expected_steps):
    """``analyzer.greedy_links(count)`` equals :func:`_stepwise_greedy`
    up to float association; returns the recommendations."""
    network, model = analyzer.network, analyzer.model
    greedy = analyzer.greedy_links(count)
    reference = _stepwise_greedy(network, model, count)
    assert len(greedy) == len(reference) == expected_steps
    original = _ComponentMatrices(
        network, _engine(network, model)
    ).baseline_total()
    for rec, (candidate, total) in zip(greedy, reference):
        got = rec.candidate
        assert (got.pop_a, got.pop_b) == (candidate.pop_a, candidate.pop_b)
        assert got.length_miles == candidate.length_miles
        assert got.current_route_miles == pytest.approx(
            candidate.current_route_miles, rel=1e-9
        )
        assert rec.aggregate_bit_risk == pytest.approx(total, rel=1e-9)
        assert rec.baseline_bit_risk == original
    return greedy


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

    def test_commit_tracks_rebuild_on_sprint(self):
        network = network_by_name("Sprint")
        model = RiskModel.for_network(network)
        working = network.copy()
        matrices = _ComponentMatrices(working, _engine(working, model))
        stats = ProvisioningStats()
        choice = matrices.candidate_list()[0]
        link = working.add_link(choice.pop_a, choice.pop_b)
        engine = _engine(working, model)
        matrices.commit_link(
            engine, choice.pop_a, choice.pop_b, link.length_miles,
            stats=stats,
        )
        fresh = _ComponentMatrices(working, engine)
        for got, want in (
            (matrices.dist, fresh.dist),
            (matrices.risk, fresh.risk),
            (matrices.geo, fresh.geo),
        ):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)
        assert (matrices.linked == fresh.linked).all()
        assert [(c.pop_a, c.pop_b) for c in matrices.candidate_list()] == [
            (c.pop_a, c.pop_b) for c in fresh.candidate_list()
        ]
        assert stats.matrix_updates == 1
        assert stats.sweeps_run > 0


class TestGreedyParity:
    @pytest.mark.parametrize("name", ["Sprint", "Level3"])
    def test_greedy_matches_rebuild_path(self, name):
        count = 4 if name == "Level3" else 6
        network = network_by_name(name)
        analyzer = ProvisioningAnalyzer(
            network, RiskModel.for_network(network)
        )
        _assert_matches_stepwise(analyzer, count, count)

    def test_disconnected_network_rebuilds_each_step(self):
        """Two disjoint four-PoP chains: no candidate bridges them, so
        greedy stops after each chain's end-to-end shortcut, rebuilding
        the matrices at every step."""
        network = Network("pair")
        for tag, lat, lon in (("w", 39.0, -120.0), ("e", 33.0, -95.0)):
            ids = []
            for i, (dlat, dlon) in enumerate(
                ((0.0, 0.0), (2.5, 3.0), (2.5, 7.0), (0.0, 10.0))
            ):
                ids.append(f"pair:{tag}{i}")
                network.add_pop(
                    PoP(ids[-1], f"{tag}{i}", GeoPoint(lat + dlat, lon + dlon))
                )
            for pop_a, pop_b in zip(ids, ids[1:]):
                network.add_link(pop_a, pop_b)
        pop_ids = network.pop_ids()
        model = RiskModel(
            {p: 1.0 / len(pop_ids) for p in pop_ids},
            {p: 1e-3 * (1 + (i * 7) % 5) for i, p in enumerate(pop_ids)},
            {p: 0.0 for p in pop_ids},
            gamma_h=1e5,
        )
        assert not _ComponentMatrices(
            network, _engine(network, model)
        ).connected
        analyzer = ProvisioningAnalyzer(network, model)
        greedy = _assert_matches_stepwise(analyzer, 5, 2)
        assert [(r.candidate.pop_a, r.candidate.pop_b) for r in greedy] == [
            ("pair:w0", "pair:w3"),
            ("pair:e0", "pair:e3"),
        ]
        assert analyzer.stats.matrix_updates == 0
        assert analyzer.stats.matrix_builds == 1 + 2


class TestCandidateLinksVectorized:
    def test_matches_scalar_reference(self):
        network = network_by_name("Sprint")
        got = _ComponentMatrices(
            network, _engine(network, RiskModel.for_network(network))
        ).candidate_list()
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
                if direct > provisioning.MAX_LENGTH_MILES or current <= 0.0:
                    continue
                if direct / current < (1.0 - provisioning.REDUCTION_THRESHOLD):
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
            actual = _ComponentMatrices(
                working, _engine(working, model)
            ).baseline_total()
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
