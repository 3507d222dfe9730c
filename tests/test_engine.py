"""Tests for repro.engine — the batched, cached RoutingEngine.

Sweeps must match the seed's dict-based search (tests/oracles.py) bit
for bit, warm answers must equal cold ones, aggregates must not depend
on cache history, and invalidation must track the risk fingerprint.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.engine.engine as engine_module
from repro.engine import (
    CsrGraph,
    EngineConfig,
    RoutingEngine,
    SweepStrategy,
    csr_sweep,
    risk_fingerprint,
)
from repro.graph.core import NodeNotFoundError
from repro.risk.model import RiskModel
from repro.topology.builders import continental_network
from tests.conftest import build_diamond_model, build_zero_mile_world
from tests.oracles import reference_aggregates, risk_dijkstra


@pytest.fixture
def diamond_graph(diamond_network):
    return diamond_network.distance_graph()


@pytest.fixture
def engine(diamond_graph, diamond_model):
    return RoutingEngine(diamond_graph, diamond_model)


def _reference_sweep(graph, model, source, alpha):
    node_risk = {node: model.node_risk(node) for node in graph.nodes()}
    return risk_dijkstra(graph, node_risk, alpha, source)


class TestCsrParity:
    """The CSR sweep must match the dict oracle byte for byte."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 123.75])
    def test_diamond_all_sources(self, diamond_graph, diamond_model, alpha):
        csr = CsrGraph(diamond_graph)
        risk = [diamond_model.node_risk(n) for n in csr.node_ids]
        entry_risk = csr.neighbor_values(risk)
        for source in diamond_graph.nodes():
            ref_dist, ref_parent = _reference_sweep(
                diamond_graph, diamond_model, source, alpha
            )
            sweep = csr_sweep(
                csr.indptr_list,
                csr.indices_list,
                csr.weights_list,
                entry_risk,
                csr.index[source],
                alpha,
            )
            got_dist = {
                csr.node_ids[i]: sweep.dist[i]
                for i in range(len(csr.node_ids))
                if sweep.dist[i] != float("inf")
            }
            got_parent = {
                csr.node_ids[i]: csr.node_ids[p]
                for i, p in enumerate(sweep.parent)
                if p >= 0
            }
            assert got_dist == ref_dist  # exact floats, not approx
            assert got_parent == ref_parent

    def test_corpus_sample(self, teliasonera, teliasonera_model):
        graph = teliasonera.distance_graph()
        csr = CsrGraph(graph)
        risk = [teliasonera_model.node_risk(n) for n in csr.node_ids]
        entry_risk = csr.neighbor_values(risk)
        source = csr.node_ids[0]
        for alpha in (0.0, 0.31):
            ref_dist, _ = _reference_sweep(
                graph, teliasonera_model, source, alpha
            )
            sweep = csr_sweep(
                csr.indptr_list,
                csr.indices_list,
                csr.weights_list,
                entry_risk,
                0,
                alpha,
            )
            for i, name in enumerate(csr.node_ids):
                assert sweep.dist[i] == ref_dist[name]


class TestWarmColdParity:
    def test_cached_pair_identical_to_cold(self, diamond_graph, diamond_model):
        cold = RoutingEngine(diamond_graph, diamond_model)
        warm = RoutingEngine(diamond_graph, diamond_model)
        warm.route_pair("diamond:west", "diamond:east")  # prime caches
        a = cold.route_pair("diamond:west", "diamond:east")
        b = warm.route_pair("diamond:west", "diamond:east")
        assert a == b
        assert pickle.dumps(a) == pickle.dumps(b)
        # The warm answer is the memoized pair, not a second search.
        assert warm.stats()["routes"]["hits"] > 0

    @pytest.mark.parametrize(
        "strategy", [SweepStrategy.EXACT, SweepStrategy.PER_SOURCE]
    )
    def test_cached_ratios_identical_to_cold(self, engine, strategy):
        cold = engine.ratios(strategy=strategy)
        assert engine.stats()["results"]["misses"] == 1
        warm = engine.ratios(strategy=strategy)
        assert engine.stats()["results"]["hits"] == 1
        assert warm is cold  # memoized aggregate, not a recomputation
        assert pickle.dumps(warm) == pickle.dumps(cold)

    @pytest.mark.parametrize("strategy", list(SweepStrategy))
    def test_engine_matches_reference_router_loop(
        self, teliasonera, teliasonera_model, strategy
    ):
        """Engine ratios equal the values computed pair by pair."""
        graph = teliasonera.distance_graph()
        nodes = list(graph.nodes())[:6]
        _assert_matches_reference(
            graph, teliasonera_model, nodes, nodes, strategy
        )


def _assert_matches_reference(graph, model, sources, targets, strategy):
    """The engine's aggregates equal :func:`reference_aggregates` on a
    separate engine, bit for bit: rr, dr and pair count.  Returns the
    engine's ratios."""
    engine = RoutingEngine(graph, model)
    ratios = engine.ratios(sources=sources, targets=targets, strategy=strategy)
    reference = reference_aggregates(
        RoutingEngine(graph, model), sources, targets, strategy
    )
    assert ratios == reference  # rr, dr and pair_count, exact floats
    return ratios


@pytest.mark.parametrize("strategy", list(SweepStrategy))
class TestVectorParity:
    """Aggregates summed from sweep component arrays equal the scalar
    per-pair reference on the edge cases of the pair population."""

    def test_targets_outside_the_sources(
        self, teliasonera, teliasonera_model, strategy
    ):
        graph = teliasonera.distance_graph()
        nodes = list(graph.nodes())
        sources = [nodes[5], nodes[0], nodes[9]]  # not in node order
        targets = nodes[3:12] + nodes[3:5]  # overlaps, repeats
        ratios = _assert_matches_reference(
            graph, teliasonera_model, sources, targets, strategy
        )
        assert ratios.pair_count == 3 * 9 - 2  # 9 distinct, 2 diagonal

    def test_unreachable_targets_are_not_counted(
        self, diamond_network, strategy
    ):
        graph = diamond_network.distance_graph()
        for node in ("island:a", "island:b"):
            graph.add_node(node)
        graph.add_edge("island:a", "island:b", 80.0)
        nodes = list(graph.nodes())
        model = RiskModel(
            {node: 1.0 / len(nodes) for node in nodes},
            {node: 1e-3 * (i + 1) for i, node in enumerate(nodes)},
            {node: 0.0 for node in nodes},
            gamma_h=1e5,
        )
        sources = ["island:a", "diamond:west"]
        ratios = _assert_matches_reference(
            graph, model, sources, nodes, strategy
        )
        # Each source reaches only its own component.
        assert ratios.pair_count == 1 + 3

    @pytest.mark.parametrize("b_risk", [0.0, 0.01])
    def test_zero_cost_shortest_path_counts_as_ratio_one(
        self, strategy, b_risk
    ):
        graph, model = build_zero_mile_world(b_risk)
        nodes = list(graph.nodes())
        _assert_matches_reference(graph, model, nodes, nodes, strategy)
        # a -> b costs 0 miles, so dr's term is 1.0; with a risk-free
        # b it also costs 0 bit-risk miles, so rr's term is 1.0 too.
        only = RoutingEngine(graph, model).ratios(
            sources=["a"], targets=["b"], strategy=strategy
        )
        assert only.distance_increase_ratio == 0.0
        assert only.pair_count == 1
        if b_risk == 0.0:
            assert only.risk_reduction_ratio == 0.0

    def test_unknown_target_raises(self, engine, strategy):
        with pytest.raises(NodeNotFoundError):
            engine.ratios(
                ["diamond:west"],
                ["diamond:east", "nowhere"],
                strategy=strategy,
            )


class TestInvalidation:
    def test_forecast_update_drops_risk_sweeps(self, diamond_network, engine):
        engine.ratios()  # populate sweeps (risk-weighted + geographic)
        cached_before = engine.stats()["cached_sweeps"]
        assert cached_before > 0
        of = {pop_id: 0.25 for pop_id in diamond_network.pop_ids()}
        changed = engine.update_model(engine.model.with_forecast_risk(of))
        assert changed is True
        stats = engine.stats()
        assert stats["sweeps"]["invalidations"] > 0
        assert stats["cached_results"] == 0
        # Geographic (alpha == 0) sweeps survive: risk cannot affect them.
        remaining = stats["cached_sweeps"]
        assert 0 < remaining < cached_before

    def test_equivalent_model_keeps_caches(self, engine):
        engine.ratios()
        stats_before = engine.stats()
        clone = build_diamond_model()  # same numbers, new object
        assert engine.update_model(clone) is False
        assert engine.stats()["cached_sweeps"] == stats_before["cached_sweeps"]
        assert engine.model is clone

    def test_new_field_changes_answers(self, diamond_network, diamond_graph):
        """After invalidation the engine serves the new model's routes."""
        risky_south = RoutingEngine(diamond_graph, build_diamond_model())
        route_before = risky_south.risk_route("diamond:west", "diamond:east")
        assert "diamond:north" in route_before.path
        # Flip the risky transit from south to north.
        flipped = build_diamond_model(south_risk=1e-3, north_risk=5e-2)
        assert risky_south.update_model(flipped) is True
        route_after = risky_south.risk_route("diamond:west", "diamond:east")
        assert "diamond:south" in route_after.path

    def test_risk_fingerprint_tracks_shares_and_risk(
        self, diamond_graph, diamond_model
    ):
        nodes = list(diamond_graph.nodes())
        base = risk_fingerprint(diamond_model, nodes)
        assert risk_fingerprint(build_diamond_model(), nodes) == base
        assert risk_fingerprint(
            build_diamond_model(south_risk=9e-2), nodes
        ) != base


class TestParallel:
    """Batched prefetch of many per-source sweeps."""

    def _tasks(self, engine):
        return [
            (s, engine._shares[s] + engine._mean_share)
            for s in range(engine.node_count)
        ]

    def test_prefetch_counts_and_dedupes(self, engine):
        tasks = self._tasks(engine)
        assert engine.prefetch(tasks) == engine.node_count
        assert engine.prefetch(tasks) == 0  # all cached now


class TestErrors:
    def test_unknown_node_raises(self, engine):
        with pytest.raises(NodeNotFoundError):
            engine.risk_route("diamond:west", "nowhere")
        with pytest.raises(NodeNotFoundError):
            engine.sweep("nowhere", 0.0)

    def test_model_must_cover_topology(self, diamond_graph):
        partial = build_diamond_model()
        diamond_graph.add_node("orphan")
        with pytest.raises(KeyError):
            RoutingEngine(diamond_graph, partial)

    def test_disconnected_pair_raises(self, diamond_network, diamond_model):
        from repro.graph.shortest_path import NoPathError
        from repro.risk.model import RiskModel

        graph = diamond_network.distance_graph()
        graph.add_node("island")
        shares = {n: 0.25 for n in graph.nodes()}
        oh = {n: 1e-3 for n in graph.nodes()}
        of = {n: 0.0 for n in graph.nodes()}
        model = RiskModel(shares, oh, of, gamma_h=1e5, gamma_f=1e3)
        engine = RoutingEngine(graph, model)
        with pytest.raises(NoPathError):
            engine.risk_route("diamond:west", "island")


def _seeded_model(network, seed=7):
    """A cheap deterministic risk field for a synthetic topology."""
    rng = np.random.default_rng(seed)
    ids = [pop.pop_id for pop in network.pops()]
    shares = rng.uniform(0.5, 1.5, len(ids))
    shares /= shares.sum()
    return RiskModel(
        dict(zip(ids, shares.tolist())),
        dict(zip(ids, rng.uniform(0.0, 0.2, len(ids)).tolist())),
        dict(zip(ids, rng.uniform(0.0, 0.2, len(ids)).tolist())),
    )


def _force_bucketed(monkeypatch):
    """Send every prefetch bucket through the bucketed kernel."""
    monkeypatch.setattr(engine_module, "BUCKETED_MIN_BATCH", 1)
    monkeypatch.setattr(engine_module, "BUCKETED_MIN_NODES", 0)


def _record_batched(monkeypatch):
    """The sources every ``csr_sweep_batch`` call settles, in order."""
    batched = []
    kernel = engine_module.csr_sweep_batch

    def recording(*args, **kwargs):
        results = kernel(*args, **kwargs)
        batched.extend(result.source for result in results)
        return results

    monkeypatch.setattr(engine_module, "csr_sweep_batch", recording)
    return batched


def _force_targeted(monkeypatch):
    """Answer every cold single-pair query with landmark A*."""
    monkeypatch.setattr(engine_module, "TARGETED_MIN_NODES", 1)


class TestKernelSelection:
    """The kernel rule's module constants, monkeypatched to force a path."""

    def test_forced_bucketed_prefetch_matches_exact(
        self, diamond_graph, diamond_model, monkeypatch
    ):
        exact = RoutingEngine(diamond_graph, diamond_model)
        forced = RoutingEngine(diamond_graph, diamond_model)
        n = forced.node_count
        batched = _record_batched(monkeypatch)
        exact.prefetch((s, 0.0) for s in range(n))
        assert batched == []  # heapq only
        _force_bucketed(monkeypatch)
        forced.prefetch((s, 0.0) for s in range(n))
        assert batched == list(range(n))  # the bucketed kernel only
        for source in exact.node_ids:
            a = exact.sweep(source, 0.0)
            b = forced.sweep(source, 0.0)
            assert a.dist == b.dist
            assert a.parent == b.parent

    def test_small_buckets_stay_on_heapq(self, monkeypatch):
        # 80 nodes clear BUCKETED_MIN_NODES; 15 sources stay below
        # BUCKETED_MIN_BATCH, 16 reach it.
        network = continental_network(pop_count=80, seed=0)
        engine = RoutingEngine(
            network.distance_graph(), _seeded_model(network)
        )
        batched = _record_batched(monkeypatch)
        engine.prefetch((s, 0.0) for s in range(15))
        assert batched == []
        engine.prefetch((s, 0.0) for s in range(20, 36))
        assert batched == list(range(20, 36))

    def test_targeted_route_equals_exact_route(
        self, diamond_network, monkeypatch
    ):
        model = build_diamond_model()
        exact = RoutingEngine(diamond_network.distance_graph(), model)
        pairs = [
            (source, target)
            for source in exact.node_ids
            for target in exact.node_ids
            if source != target
        ]
        expected = {
            pair: (exact.risk_route(*pair), exact.shortest_path(*pair))
            for pair in pairs
        }
        _force_targeted(monkeypatch)
        targeted = RoutingEngine(diamond_network.distance_graph(), model)
        targeted.set_coordinates(
            [
                (
                    diamond_network.pop(node).location.lat,
                    diamond_network.pop(node).location.lon,
                )
                for node in targeted.node_ids
            ]
        )
        for pair in pairs:
            a, s = expected[pair]
            b = targeted.risk_route(*pair)
            assert a.path == b.path
            assert a.metrics == b.metrics
            assert s.path == targeted.shortest_path(*pair).path
        stats = targeted.targeted_stats()
        assert stats["queries"] > 0
        assert stats["settled"] <= stats["queries"] * targeted.node_count

    def test_targeted_disconnected_pair_raises(
        self, diamond_network, monkeypatch
    ):
        from repro.graph.shortest_path import NoPathError

        graph = diamond_network.distance_graph()
        graph.add_node("island")
        shares = {n: 0.25 for n in graph.nodes()}
        oh = {n: 1e-3 for n in graph.nodes()}
        of = {n: 0.0 for n in graph.nodes()}
        model = RiskModel(shares, oh, of)
        _force_targeted(monkeypatch)
        engine = RoutingEngine(graph, model)
        with pytest.raises(NoPathError):
            engine.risk_route("diamond:west", "island")
        assert engine.targeted_stats()["queries"] >= 1

    def test_invalid_kernel_config_rejected(self):
        # Kernel choice is the module rule, and sweeps run serially:
        # neither is a config knob.
        with pytest.raises(TypeError):
            EngineConfig(kernel="bucketed")
        with pytest.raises(TypeError):
            EngineConfig(workers=2)

    def test_set_coordinates_validates_and_resets(self, engine):
        with pytest.raises(ValueError):
            engine.set_coordinates([(0.0, 0.0)])  # wrong length
        coords = [(float(i), float(-i)) for i in range(engine.node_count)]
        engine.set_coordinates(coords)
        index = engine.landmark_index()
        assert index is engine.landmark_index()  # cached
        engine.set_coordinates(coords)  # unchanged: keep the index
        assert index is engine.landmark_index()
        coords2 = [(lat + 1.0, lon) for lat, lon in coords]
        engine.set_coordinates(coords2)  # changed: rebuild lazily
        assert engine.landmark_index() is not index


class TestKernelIndependence:
    """On a topology without exact ties, no answer depends on which
    kernel settled a sweep or on the order sweeps entered the cache."""

    def test_batched_and_one_at_a_time_caches_agree(self, monkeypatch):
        network = continental_network(pop_count=400, seed=0)
        graph = network.distance_graph()
        model = _seeded_model(network)
        per_source = SweepStrategy.PER_SOURCE
        answers = []
        kernel_sources = _record_batched(monkeypatch)
        for batched in (True, False):
            engine = RoutingEngine(graph, model)
            sources = engine.node_ids[:20]
            kernel_sources.clear()
            if batched:
                # One prefetch: the 20 geographic sweeps share a bucket
                # and run through the bucketed kernel.
                engine.prefetch(
                    task
                    for name in sources
                    for task in (
                        (engine.index_of(name), 0.0),
                        (engine.index_of(name), engine.expected_impact(name)),
                    )
                )
                assert engine.index_of(sources[0]) in kernel_sources
            else:
                for name in sources:
                    engine.sweep(name, 0.0)
                    engine.sweep(name, engine.expected_impact(name))
                assert kernel_sources == []
            ratios = engine.ratios(sources=sources, strategy=per_source)
            answers.append(
                (
                    ratios.risk_reduction_ratio,
                    ratios.distance_increase_ratio,
                    list(engine.risk_routes_from(sources[0], per_source)),
                )
            )
        assert answers[0] == answers[1]
