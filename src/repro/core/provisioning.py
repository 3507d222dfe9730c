"""Robustness analysis: where to add links and peerings (Section 6.3).

Equation 4 asks for the candidate link whose addition minimises the
network-wide aggregated bit-risk miles.  Evaluating every candidate by
re-running all-pairs RiskRoute would be quadratic in candidates; instead
each source's route components (mileage sum, risk sum) are computed once,
and a candidate edge ``(a, b)`` is scored with the standard via-edge
composition ``r_via(i,j) = min over orientations of comp(i,a) + w_ab +
comp(b,j)`` — exact arithmetic on near-optimal component paths.

The greedy k-link search (Figure 10) is *incremental*: after a link is
committed, the all-pairs component matrices are updated in place with
the O(n²) vectorized edge-insertion relaxation ``d' = min(d, d[·,a] + w
+ d[b,·], d[·,b] + w + d[a,·])`` instead of re-running n Dijkstra
sweeps.  The suffix components come from the engine's exact
parametric-alpha solve (DESIGN.md section 9), so a k-link run costs one
sweep set plus k cheap matrix updates — and still reproduces the
per-iteration-rebuild link sequence bit-for-bit on the corpus networks.

The candidate set follows the intent of the paper's footnote — keep only
absent links that meaningfully cut the endpoints' route mileage, and
drop impractical cross-country spans.  The paper's literal ">50%
reduction in bit-miles" threshold was calibrated for real ISP maps with
substantial route stretch; the synthetic Gabriel meshes here are
near-optimal spanners (mean stretch ~1.1), so the threshold is a >15%
reduction combined with a hard length cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..engine import ProvisioningStats, RoutingEngine
from ..geo.distance import great_circle_miles
from ..risk.model import RiskModel
from ..topology.interdomain import InterdomainTopology
from ..topology.network import Network
from .interdomain import InterdomainRouter, regional_pair_population

__all__ = [
    "CandidateLink",
    "LinkRecommendation",
    "PeeringRecommendation",
    "ProvisioningStats",
    "ProvisioningAnalyzer",
    "best_new_peering",
]

_INF = float("inf")

#: Candidate filter: a new link must cut the endpoints' route mileage
#: by more than this fraction (see module docstring for why this is
#: below the paper's 0.5).
REDUCTION_THRESHOLD = 0.15

#: Cap on new-link length: excludes impractical spans, the other half of
#: the paper's filter intent.  2000 miles admits real long-haul builds
#: (Denver-Seattle class) while rejecting coast-to-coast spans.
MAX_LENGTH_MILES = 2000.0


@dataclass(frozen=True)
class CandidateLink:
    """A possible new PoP-to-PoP link."""

    pop_a: str
    pop_b: str
    length_miles: float
    current_route_miles: float


@dataclass(frozen=True)
class LinkRecommendation:
    """One scored provisioning suggestion."""

    candidate: CandidateLink
    aggregate_bit_risk: float
    baseline_bit_risk: float

    @property
    def fraction_of_baseline(self) -> float:
        """Aggregated bit-risk after the link, as a fraction of before."""
        if self.baseline_bit_risk == 0.0:
            return 1.0
        return self.aggregate_bit_risk / self.baseline_bit_risk


@dataclass(frozen=True)
class PeeringRecommendation:
    """The best new peering for a regional network (Figure 11)."""

    network: str
    peer: str
    aggregate_lower_bound: float
    baseline_lower_bound: float

    @property
    def fraction_of_baseline(self) -> float:
        """Lower-bound bit-risk with the peering vs without."""
        if self.baseline_lower_bound == 0.0:
            return 1.0
        return self.aggregate_lower_bound / self.baseline_lower_bound


def _linked_mask(graph, pop_ids: Sequence[str]) -> np.ndarray:
    index = {p: i for i, p in enumerate(pop_ids)}
    linked = np.zeros((len(pop_ids), len(pop_ids)), dtype=bool)
    for u in pop_ids:
        i = index[u]
        for v in graph.neighbors(u):
            j = index.get(v)
            if j is not None:
                linked[i, j] = True
    return linked


def _geo_rows(engine, pop_ids: Sequence[str], perm: np.ndarray) -> np.ndarray:
    """All-pairs geographic distances from cached ``alpha == 0`` sweeps
    (``inf`` where unreachable), rows/columns in PoP order."""
    engine.prefetch((s, 0.0) for s in perm.tolist())
    geo = np.empty((len(pop_ids), len(pop_ids)), dtype=np.float64)
    for i, source in enumerate(pop_ids):
        geo[i] = np.asarray(engine.sweep(source, 0.0).dist)[perm]
    return geo


def _candidate_mask(
    direct: np.ndarray, current: np.ndarray, linked: np.ndarray
) -> np.ndarray:
    """The Equation 4 candidate filter, vectorized.

    Comparison expressions deliberately mirror the historical scalar
    loop (``direct / current < 1 - threshold`` as a division, not a
    cross-multiplication) so the admitted set is identical.
    """
    n = direct.shape[0]
    finite = np.isfinite(current) & (current > 0.0)
    ratio = np.full(direct.shape, _INF)
    np.divide(direct, current, out=ratio, where=finite)
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    mask &= ~linked
    mask &= direct <= MAX_LENGTH_MILES
    mask &= finite
    mask &= ratio < (1.0 - REDUCTION_THRESHOLD)
    return mask


class _ComponentMatrices:
    """All-pairs (mileage, risk-sum, impact) arrays for one topology,
    with the candidate state of Equation 4's set ``E_C``.

    Route components come from the routing engine's O(n) parent-tree
    extraction, under the engine's bound model, so the per-source sweeps
    behind them are memoized and never materialise per-target path
    objects.  The candidate state is the direct-span matrix (one
    vectorized haversine evaluation), the current route mileage from the
    engine's cached geographic (``alpha == 0``) sweeps, and the linked
    mask.  The arrays support three operations:

    * ``candidate_list`` — the candidate links against the current
      topology;
    * ``candidate_total`` — via-edge scoring of one candidate link as a
      rank-4 matrix product over preallocated buffers;
    * ``commit_link`` — the exact in-place edge-insertion update, using
      the engine's parametric-alpha suffix components.
    """

    def __init__(
        self,
        network: Network,
        engine: RoutingEngine,
        *,
        stats: Optional[ProvisioningStats] = None,
    ) -> None:
        model = engine.model
        pop_ids = network.pop_ids()
        index = {pop_id: i for i, pop_id in enumerate(pop_ids)}
        n = len(pop_ids)
        engine.prefetch_per_source(pop_ids)
        perm = np.array(
            [engine.index_of(p) for p in pop_ids], dtype=np.intp
        )
        dist = np.zeros((n, n), dtype=np.float64)
        risk = np.zeros((n, n), dtype=np.float64)
        reached = np.zeros((n, n), dtype=bool)
        row_alpha = np.empty(n, dtype=np.float64)
        for i, source in enumerate(pop_ids):
            alpha = engine.expected_impact(source)
            row_alpha[i] = alpha
            d, r, reach = engine.component_arrays(source, alpha)
            dist[i] = d[perm]
            risk[i] = r[perm]
            reached[i] = reach[perm]
        shares = np.array([model.share(p) for p in pop_ids])
        self.pop_ids = pop_ids
        self.index = index
        self.dist = dist
        self.risk = risk
        self.shares = shares
        self.alpha = shares[:, None] + shares[None, :]
        self.node_risk = np.array([model.node_risk(p) for p in pop_ids])
        self.row_alpha = row_alpha
        self.connected = bool(reached.all()) if n else True
        self._upper = np.triu_indices(n, k=1)
        self._tril = np.tril_indices(n, k=0)
        self._uniq_alphas, self._alpha_inv = np.unique(
            row_alpha, return_inverse=True
        )
        self._buf = None
        latlon = network.latlon()
        self.direct = great_circle_miles(latlon, latlon)
        self.linked = _linked_mask(network.distance_graph(), pop_ids)
        self.geo = _geo_rows(engine, pop_ids, perm)
        self._refresh_derived()
        if stats is not None:
            stats.matrix_builds += 1

    # -- derived scoring state --------------------------------------------

    def _refresh_derived(self) -> None:
        self._base = self.dist + self.alpha * self.risk
        # Row/column-impact-weighted copies feeding the rank-4 product.
        self._X = self.dist + self.shares[:, None] * self.risk
        self._Y = self.dist + self.shares[None, :] * self.risk
        # -inf on the lower triangle and diagonal makes full-matrix
        # reductions count each unordered pair exactly once.
        masked = self._base.copy()
        masked[self._tril] = -_INF
        self._base_masked = masked
        self._baseline = float(self._base[self._upper].sum())

    def _buffers(self):
        """Preallocated scoring buffers, allocated on first use."""
        if self._buf is None:
            n = len(self.pop_ids)
            self._buf = (
                np.empty((n, 4), dtype=np.float64),
                np.empty((4, n), dtype=np.float64),
                np.empty((n, n), dtype=np.float64),
                np.empty((n, n), dtype=np.float64),
                np.empty((n, n), dtype=np.float64),
            )
        return self._buf

    # -- aggregates ---------------------------------------------------------

    def baseline_total(self) -> float:
        """Aggregate bit-risk miles over unordered pairs."""
        return self._baseline

    def candidate_total(self, candidate: CandidateLink) -> float:
        """Aggregate after adding ``candidate``, via-edge composition.

        The combined via cost ``d_ia + w + d_bj + (s_i + s_j)(r_ia +
        o_b + r_bj)`` separates into a rank-4 bilinear form, so each
        orientation is one ``(n,4) @ (4,n)`` matrix product into a
        preallocated buffer — no fresh n x n temporaries per candidate.
        """
        a = self.index[candidate.pop_a]
        b = self.index[candidate.pop_b]
        w = candidate.length_miles
        A, B, C1, C2, T = self._buffers()
        s = self.shares
        X, Y, R, nr = self._X, self._Y, self.risk, self.node_risk
        np.add(X[:, a], w, out=A[:, 0])
        A[:, 1] = 1.0
        A[:, 2] = s
        np.add(R[:, a], nr[b], out=A[:, 3])
        B[0, :] = 1.0
        B[1, :] = Y[b, :]
        np.add(R[b, :], nr[b], out=B[2, :])
        B[3, :] = s
        np.matmul(A, B, out=C1)
        np.add(X[:, b], w, out=A[:, 0])
        np.add(R[:, b], nr[a], out=A[:, 3])
        B[1, :] = Y[a, :]
        np.add(R[a, :], nr[a], out=B[2, :])
        np.matmul(A, B, out=C2)
        np.minimum(C1, C2, out=T)
        np.subtract(self._base_masked, T, out=T)
        np.clip(T, 0.0, None, out=T)
        return self._baseline - float(T.sum())

    # -- candidate generation ----------------------------------------------

    def candidate_list(self) -> List[CandidateLink]:
        """Remaining candidates against the *current* (post-commit)
        matrices — no re-sweep, the geographic matrix is maintained
        in place by :meth:`commit_link`."""
        mask = _candidate_mask(self.direct, self.geo, self.linked)
        rows, cols = np.nonzero(mask)
        return [
            CandidateLink(
                self.pop_ids[i],
                self.pop_ids[j],
                float(self.direct[i, j]),
                float(self.geo[i, j]),
            )
            for i, j in zip(rows.tolist(), cols.tolist())
        ]

    # -- incremental maintenance -------------------------------------------

    def commit_link(
        self,
        engine,
        pop_a: str,
        pop_b: str,
        length_miles: float,
        *,
        stats: Optional[ProvisioningStats] = None,
    ) -> None:
        """Fold one committed edge ``(a, b)`` into the matrices in place.

        ``engine`` must be bound to the *augmented* graph.  The
        risk-weighted rows relax through exact alpha_i-optimal suffix
        components from the engine's parametric solve; the geographic
        matrix relaxes with the classic single-metric composition.  Both
        are exact in value (DESIGN.md section 9) — only float-summation
        association differs from a from-scratch rebuild.
        """
        a = self.index[pop_a]
        b = self.index[pop_b]
        w = float(length_miles)
        n = len(self.pop_ids)
        perm = np.array(
            [engine.index_of(p) for p in self.pop_ids], dtype=np.intp
        )
        Da, Ra, probed_a = engine.component_table(pop_a, self._uniq_alphas)
        Db, Rb, probed_b = engine.component_table(pop_b, self._uniq_alphas)
        inv = self._alpha_inv
        SDa = Da[inv][:, perm]
        SRa = Ra[inv][:, perm]
        SDb = Db[inv][:, perm]
        SRb = Rb[inv][:, perm]
        nra = float(self.node_risk[a])
        nrb = float(self.node_risk[b])
        via1_d = self.dist[:, [a]] + w + SDb
        via1_r = self.risk[:, [a]] + nrb + SRb
        via2_d = self.dist[:, [b]] + w + SDa
        via2_r = self.risk[:, [b]] + nra + SRa
        row_alpha = self.row_alpha[:, None]
        cost0 = self.dist + row_alpha * self.risk
        cost1 = via1_d + row_alpha * via1_r
        cost2 = via2_d + row_alpha * via2_r
        use2 = cost2 < cost1
        via_d = np.where(use2, via2_d, via1_d)
        via_r = np.where(use2, via2_r, via1_r)
        via_c = np.where(use2, cost2, cost1)
        update = via_c < cost0
        self.dist = np.where(update, via_d, self.dist)
        self.risk = np.where(update, via_r, self.risk)
        geo = self.geo
        via_geo = np.minimum(
            geo[:, [a]] + w + geo[[b], :],
            geo[:, [b]] + w + geo[[a], :],
        )
        np.minimum(geo, via_geo, out=geo)
        self.linked[a, b] = self.linked[b, a] = True
        self._refresh_derived()
        if stats is not None:
            stats.matrix_updates += 1
            stats.sweeps_run += probed_a + probed_b
            stats.sweeps_avoided += max(0, n - (probed_a + probed_b))


class ProvisioningAnalyzer:
    """Evaluates Equation 4 over a network's candidate links.

    Args:
        network: the network to augment.
        model: its risk model.
        config: optional :class:`~repro.engine.EngineConfig`, the
            cache sizes of the engines this analyzer builds (one per
            working graph of a greedy search).
        engine: an engine over ``network``'s topology bound to ``model``
            (a session passes its own, so scoring reuses its sweeps).
            Without one, every call builds an engine from
            ``network.distance_graph()``, so a network mutated between
            calls is seen.

    ``stats`` accumulates :class:`ProvisioningStats` counters across
    every query served by this analyzer (sweeps avoided by incremental
    updates, matrices built and updated, candidates scored).
    """

    def __init__(
        self,
        network: Network,
        model: RiskModel,
        config=None,
        *,
        engine: Optional[RoutingEngine] = None,
    ) -> None:
        self.network = network
        self.model = model
        self.config = config
        self.engine = engine
        self.stats = ProvisioningStats()

    def _engine_for(self, network: Network) -> RoutingEngine:
        """The analyzer's engine for its own network; otherwise a fresh
        engine over ``network``'s current distance graph."""
        if self.engine is not None and network is self.network:
            return self.engine
        return RoutingEngine(network.distance_graph(), self.model, self.config)

    def _score_candidates(
        self,
        matrices: _ComponentMatrices,
        candidates: Sequence[CandidateLink],
    ) -> List[float]:
        self.stats.candidates_scored += len(candidates)
        return [matrices.candidate_total(c) for c in candidates]

    def _best_candidate(
        self,
        matrices: _ComponentMatrices,
        candidates: Sequence[CandidateLink],
    ) -> CandidateLink:
        """The Equation 4 argmin (ties broken by endpoint names)."""
        totals = self._score_candidates(matrices, candidates)
        best_i = min(
            range(len(candidates)),
            key=lambda i: (
                totals[i],
                candidates[i].pop_a,
                candidates[i].pop_b,
            ),
        )
        return candidates[best_i]

    def rank_candidates(
        self, top: Optional[int] = None
    ) -> List[LinkRecommendation]:
        """Score the candidate set by post-addition aggregate bit-risk,
        best first (the Figure 9 ranking).

        Args:
            top: truncate the ranking (None = all).

        Raises:
            ValueError: for a ``top`` below 1.
        """
        if top is not None and top < 1:
            raise ValueError("top must be >= 1")
        matrices = _ComponentMatrices(
            self.network, self._engine_for(self.network), stats=self.stats
        )
        candidates = matrices.candidate_list()
        baseline = matrices.baseline_total()
        totals = self._score_candidates(matrices, candidates)
        scored = [
            LinkRecommendation(candidate, total, baseline)
            for candidate, total in zip(candidates, totals)
        ]
        scored.sort(
            key=lambda rec: (
                rec.aggregate_bit_risk,
                rec.candidate.pop_a,
                rec.candidate.pop_b,
            )
        )
        return scored[:top] if top is not None else scored

    def greedy_links(self, count: int) -> List[LinkRecommendation]:
        """Add ``count`` links greedily (Section 6.3's k-link extension,
        the computation behind Figure 10).

        Each recommendation's ``baseline_bit_risk`` is the *original*
        network's aggregate, so ``fraction_of_baseline`` decays as links
        accumulate.

        The component matrices are built once and each committed link is
        folded in place (see :meth:`_ComponentMatrices.commit_link`).  On
        a disconnected topology, where 0-filled unreachable entries make
        the in-place relaxation unsound, each step rebuilds the matrices
        instead; no candidate bridges two components (their current route
        is ``inf``), so the topology stays disconnected.

        Raises:
            ValueError: for a non-positive count.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        working = self.network.copy()
        # The copy has the analyzed network's topology, so its engine
        # serves the copy until the first link is added.
        matrices = _ComponentMatrices(
            working, self._engine_for(self.network), stats=self.stats
        )
        original = matrices.baseline_total()
        out: List[LinkRecommendation] = []
        for _ in range(count):
            candidates = matrices.candidate_list()
            if not candidates:
                break
            choice = self._best_candidate(matrices, candidates)
            link = working.add_link(choice.pop_a, choice.pop_b)
            engine = RoutingEngine(
                working.distance_graph(), self.model, self.config
            )
            if matrices.connected:
                matrices.commit_link(
                    engine,
                    choice.pop_a,
                    choice.pop_b,
                    link.length_miles,
                    stats=self.stats,
                )
            else:
                matrices = _ComponentMatrices(
                    working, engine, stats=self.stats
                )
            out.append(
                LinkRecommendation(
                    candidate=choice,
                    aggregate_bit_risk=matrices.baseline_total(),
                    baseline_bit_risk=original,
                )
            )
        return out


def best_new_peering(
    topology: InterdomainTopology,
    model: RiskModel,
    regional_name: str,
    tier1_only: bool = False,
    *,
    router: Optional[InterdomainRouter] = None,
) -> Optional[PeeringRecommendation]:
    """The best new peering for one regional network (Figure 11).

    Candidate peers are networks with co-located PoPs and no existing
    relationship; each is scored by the regional's aggregate lower-bound
    bit-risk miles with the peering added.  Instead of re-sweeping the
    merged graph once per candidate peer, every peer is scored via-edge
    against one shared baseline component set: the candidate peering's
    co-location edges relax each (source, destination) value through the
    engine's cached per-endpoint component arrays.

    Args:
        topology: the merged interdomain topology.
        model: risk model covering the merge.
        regional_name: the network shopping for a peer.
        tier1_only: restrict candidates to tier-1 providers (new transit
            rather than mutual regional peering — the relationship type
            Figure 11's recommendations are all drawn from).
        router: optional pre-built router over the merge; pass one
            when scoring many regionals to share the merged graph build.

    Returns None when the network has no candidate peers.

    Raises:
        KeyError: for a network not in the merge.
    """
    candidates = topology.candidate_peer_networks(regional_name)
    if tier1_only:
        candidates = [
            name
            for name in candidates
            if topology.networks[name].tier == "tier1"
        ]
    if not candidates:
        return None
    destinations = regional_pair_population(topology)
    if router is None:
        router = InterdomainRouter(topology, model)
    engine = router.engine
    sources = list(topology.networks[regional_name].pop_ids())
    didx = np.array([engine.index_of(t) for t in destinations], dtype=np.intp)
    dest_names = np.array(destinations)
    dest_share = np.array([model.share(t) for t in destinations])
    engine.prefetch_per_source(sources)
    base_rows = np.empty((len(sources), len(destinations)), dtype=np.float64)
    prefix: Dict[str, tuple] = {}
    for si, source in enumerate(sources):
        d, r, reach = engine.component_arrays(
            source, engine.expected_impact(source)
        )
        prefix[source] = (d, r, reach)
        values = d[didx] + (model.share(source) + dest_share) * r[didx]
        values = np.where(reach[didx], values, _INF)
        values[dest_names == source] = _INF
        base_rows[si] = values
    baseline = float(
        np.where(np.isfinite(base_rows), base_rows, 0.0).sum()
    )
    by_peer: Dict[str, list] = {}
    for peering in topology.candidate_peerings(regional_name):
        by_peer.setdefault(peering.network_b, []).append(peering)
    best: Optional[PeeringRecommendation] = None
    for peer in candidates:
        edges = by_peer.get(peer, [])
        if not edges:
            continue
        a_idx = np.array(
            [engine.index_of(p.pop_a) for p in edges], dtype=np.intp
        )
        b_idx = np.array(
            [engine.index_of(p.pop_b) for p in edges], dtype=np.intp
        )
        width = np.array([p.distance_miles for p in edges])[:, None]
        risk_a = np.array([model.node_risk(p.pop_a) for p in edges])[:, None]
        risk_b = np.array([model.node_risk(p.pop_b) for p in edges])[:, None]
        suffix_db = np.empty((len(edges), len(destinations)))
        suffix_rb = np.empty_like(suffix_db)
        suffix_da = np.empty_like(suffix_db)
        suffix_ra = np.empty_like(suffix_db)
        for e, peering in enumerate(edges):
            d, r, reach = engine.component_arrays(
                peering.pop_b, engine.expected_impact(peering.pop_b)
            )
            suffix_db[e] = np.where(reach[didx], d[didx], _INF)
            suffix_rb[e] = r[didx]
            d, r, reach = engine.component_arrays(
                peering.pop_a, engine.expected_impact(peering.pop_a)
            )
            suffix_da[e] = np.where(reach[didx], d[didx], _INF)
            suffix_ra[e] = r[didx]
        total = 0.0
        for si, source in enumerate(sources):
            d, r, reach = prefix[source]
            pre_da = np.where(reach[a_idx], d[a_idx], _INF)[:, None]
            pre_ra = r[a_idx][:, None]
            pre_db = np.where(reach[b_idx], d[b_idx], _INF)[:, None]
            pre_rb = r[b_idx][:, None]
            alpha_pair = (model.share(source) + dest_share)[None, :]
            via_enter = (pre_da + width + suffix_db) + alpha_pair * (
                pre_ra + risk_b + suffix_rb
            )
            via_return = (pre_db + width + suffix_da) + alpha_pair * (
                pre_rb + risk_a + suffix_ra
            )
            via = np.minimum(via_enter.min(axis=0), via_return.min(axis=0))
            row = np.minimum(base_rows[si], via)
            row = np.where(dest_names == source, _INF, row)
            total += float(np.where(np.isfinite(row), row, 0.0).sum())
        rec = PeeringRecommendation(
            network=regional_name,
            peer=peer,
            aggregate_lower_bound=total,
            baseline_lower_bound=baseline,
        )
        if best is None or (rec.aggregate_lower_bound, rec.peer) < (
            best.aggregate_lower_bound,
            best.peer,
        ):
            best = rec
    return best
