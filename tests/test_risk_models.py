"""Tests for repro.risk (historical, forecasted, composed) and the
population shares it composes."""

import math
import os

import numpy as np
import pytest

from repro.forecast.risk import ForecastSnapshot
from repro.geo.coords import CONTINENTAL_US, GeoPoint
from repro.geo.grid import GeoGrid
from repro.population.assignment import network_population_shares
from repro.population.census import synthetic_census
from repro.population import assignment
from repro.risk.forecasted import ForecastedRiskModel
from repro.risk.historical import RISK_UNIT_MILES, HistoricalRiskModel
from repro.risk import model as model_module
from repro.risk.model import DEFAULT_GAMMA_F, DEFAULT_GAMMA_H, RiskModel
from repro.stats.kde import GaussianKDE, points_to_array
from repro.topology.network import Network, PoP

RISKY_SPOT = GeoPoint(30.0, -90.0)
SAFE_SPOT = GeoPoint(45.0, -110.0)


def toy_historical(weights=None) -> HistoricalRiskModel:
    events = [
        GeoPoint(30.0 + d, -90.0 + d) for d in (-0.2, -0.1, 0.0, 0.1, 0.2)
    ]
    return HistoricalRiskModel(
        {"storm": GaussianKDE(points_to_array(events), 40.0)}, weights
    )


def latlon(*points: GeoPoint) -> np.ndarray:
    """The (lat, lon) rows ``risks_array`` and ``risks_many`` take."""
    return np.array([(p.lat, p.lon) for p in points])


def toy_network() -> Network:
    net = Network("toy")
    net.add_pop(PoP("toy:risky", "Risky", RISKY_SPOT))
    net.add_pop(PoP("toy:safe", "Safe", SAFE_SPOT))
    net.add_link("toy:risky", "toy:safe")
    return net


class TestHistorical:
    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            HistoricalRiskModel({})

    def test_negative_weight_rejected(self):
        kde = GaussianKDE(points_to_array([RISKY_SPOT]), 10.0)
        with pytest.raises(ValueError):
            HistoricalRiskModel({"storm": kde}, weights={"storm": -1.0})

    def test_risk_higher_near_events(self):
        risky, safe = toy_historical().risks_array(latlon(RISKY_SPOT, SAFE_SPOT))
        assert risky > safe

    def test_equation2_normalisation(self):
        """Risk = density * sigma * unit, per the module's convention."""
        model = toy_historical()
        offsets = (-0.2, -0.1, 0.0, 0.1, 0.2)
        kde = GaussianKDE(
            latlon(*(GeoPoint(30.0 + d, -90.0 + d) for d in offsets)), 40.0
        )
        expected = kde.density(RISKY_SPOT) * 40.0 * RISK_UNIT_MILES
        assert model.risks_array(latlon(RISKY_SPOT))[0] == pytest.approx(
            expected
        )

    def test_weights_scale_risk(self):
        base = toy_historical().risks_array(latlon(RISKY_SPOT))
        doubled = toy_historical({"storm": 2.0}).risks_array(latlon(RISKY_SPOT))
        assert doubled[0] == pytest.approx(2.0 * base[0])

    def test_zero_weight_removes_class(self):
        muted = toy_historical({"storm": 0.0})
        assert muted.risks_array(latlon(RISKY_SPOT))[0] == 0.0

    def test_pop_risks(self):
        risks = toy_historical().pop_risks(toy_network())
        assert set(risks) == {"toy:risky", "toy:safe"}
        assert risks["toy:risky"] > risks["toy:safe"]

    def test_risks_array_empty(self):
        assert toy_historical().risks_array(np.zeros((0, 2))).shape == (0,)

    def test_fingerprint_tracks_weights_and_kdes(self):
        base = toy_historical()
        assert base.fingerprint == toy_historical().fingerprint
        assert base.fingerprint != toy_historical({"storm": 2.0}).fingerprint

    def test_repeated_pop_risks_evaluates_no_kernel(self, monkeypatch):
        """The second call on one model is a memo hit."""
        net = toy_network()
        model = toy_historical()
        first = model.pop_risks(net)

        def boom(*args, **kwargs):
            raise AssertionError("KDE evaluated despite a memo hit")

        monkeypatch.setattr(GaussianKDE, "density_array", boom)
        assert model.pop_risks(net) == first
        # The trap is live: a fresh model (empty memo) trips it.
        with pytest.raises(AssertionError, match="memo hit"):
            toy_historical().pop_risks(net)

    def test_fields_leave_no_files_behind(self, tmp_path, monkeypatch):
        """o_h vectors and grid fields live in process memory only."""
        for name in [k for k in os.environ if k.startswith("RISKROUTE_")]:
            monkeypatch.delenv(name)
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        toy_historical().pop_risks(toy_network())
        kde = GaussianKDE(latlon(RISKY_SPOT, SAFE_SPOT), 40.0)
        kde.evaluate_grid(GeoGrid(CONTINENTAL_US, 4, 5))
        assert list(tmp_path.rglob("*")) == []


class TestDefaultOhCacheRegression:
    def test_same_name_different_networks_get_distinct_oh(self, monkeypatch):
        """Two distinct networks sharing a name must not share o_h.

        The old module-level ``_DEFAULT_OH_CACHE`` keyed by
        ``network.name`` only, so the second network silently reused
        the first one's vector; content-fingerprint keying fixes it.
        """
        import repro.risk.model as risk_model

        monkeypatch.setattr(
            risk_model, "default_historical_model", toy_historical
        )
        near = Network("dup")
        near.add_pop(PoP("dup:a", "A", RISKY_SPOT))
        far = Network("dup")  # same name, different geography
        far.add_pop(PoP("dup:a", "A", SAFE_SPOT))
        model_near = RiskModel.for_network(near)
        model_far = RiskModel.for_network(far)
        assert model_near.historical_risk("dup:a") > model_far.historical_risk(
            "dup:a"
        )


class TestForecasted:
    def snapshot(self):
        return ForecastSnapshot(RISKY_SPOT, 50.0, 150.0)

    def test_no_forecast_zero(self):
        model = ForecastedRiskModel([])
        net = toy_network()
        assert model.pop_risks(net) == {"toy:risky": 0.0, "toy:safe": 0.0}
        assert model.pops_in_scope(net) == []

    def test_single_snapshot(self):
        model = ForecastedRiskModel([self.snapshot()])
        risks = model.pop_risks(toy_network())
        assert risks == {"toy:risky": 100.0, "toy:safe": 0.0}

    def test_max_over_snapshots(self):
        weak = ForecastSnapshot(RISKY_SPOT, 0.0, 150.0)
        strong = self.snapshot()
        for order in ([weak, strong], [strong, weak]):
            risks = ForecastedRiskModel(order).pop_risks(toy_network())
            assert risks["toy:risky"] == 100.0

    def test_pop_risks_and_scope(self):
        model = ForecastedRiskModel([self.snapshot()])
        net = toy_network()
        risks = model.pop_risks(net)
        assert risks["toy:risky"] == 100.0
        assert risks["toy:safe"] == 0.0
        assert model.pops_in_scope(net) == ["toy:risky"]


class TestImpact:
    def test_network_impact_shares_sum_to_one(self, teliasonera):
        shares = network_population_shares(teliasonera)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_impact_sum(self, teliasonera, teliasonera_model):
        shares = network_population_shares(teliasonera)
        ids = teliasonera.pop_ids()
        assert teliasonera_model.impact(ids[0], ids[1]) == (
            shares[ids[0]] + shares[ids[1]]
        )

    def test_cached_by_name(self, teliasonera, monkeypatch):
        """A repeat is a memo hit, and every caller gets its own copy."""
        first = network_population_shares(teliasonera)

        def boom(*args, **kwargs):
            raise AssertionError("census swept despite a memo hit")

        monkeypatch.setattr(assignment, "assign_population", boom)
        first[teliasonera.pop_ids()[0]] = 5.0
        second = network_population_shares(teliasonera)
        assert second is not first
        assert sum(second.values()) == pytest.approx(1.0)

    @staticmethod
    def _named(name, locations) -> Network:
        """A network called ``name`` with one PoP per location."""
        network = Network(name)
        for i, location in enumerate(locations):
            network.add_pop(PoP(f"{name}:{i}", f"PoP {i}", location))
        return network

    def test_same_name_different_coordinates_get_own_shares(self):
        east = self._named(
            "Twin", [GeoPoint(40.7, -74.0), GeoPoint(25.8, -80.2)]
        )
        west = self._named(
            "Twin", [GeoPoint(47.6, -122.3), GeoPoint(34.0, -118.2)]
        )
        east_shares = network_population_shares(east)
        west_shares = network_population_shares(west)
        assert east_shares != west_shares
        assert west_shares == assignment.assign_population(
            synthetic_census(), west
        )

    def test_same_name_with_one_more_pop_gets_every_share(self):
        locations = [GeoPoint(40.7, -74.0), GeoPoint(34.0, -118.2)]
        smaller = self._named("Grower", locations)
        larger = self._named("Grower", locations + [GeoPoint(41.9, -87.6)])
        network_population_shares(smaller)
        shares = network_population_shares(larger)
        assert set(shares) == set(larger.pop_ids())
        model = RiskModel.for_network(larger, historical=toy_historical())
        for pop_id in larger.pop_ids():
            assert model.share(pop_id) == shares[pop_id]


class TestGammaCheckedFirst:
    """A bad gamma is rejected before any share or ``o_h`` is built."""

    @pytest.mark.parametrize(
        "gammas, name",
        [
            ({"gamma_h": float("nan")}, "gamma_h"),
            ({"gamma_f": -1.0}, "gamma_f"),
        ],
    )
    def test_bad_gamma_raises_before_the_build(
        self, monkeypatch, gammas, name
    ):
        def boom(*args, **kwargs):
            raise AssertionError("built shares or o_h before the gamma check")

        class BoomHistorical:
            pop_risks = staticmethod(boom)

        monkeypatch.setattr(model_module, "network_population_shares", boom)
        monkeypatch.setattr(model_module, "default_historical_model", boom)
        network = toy_network()
        for historical in (None, BoomHistorical()):
            with pytest.raises(ValueError, match=name):
                RiskModel.for_network(network, historical, **gammas)


class TestRiskModel:
    def toy_model(self, gamma_h=1e5, gamma_f=1e3):
        shares = {"a": 0.5, "b": 0.5}
        oh = {"a": 0.01, "b": 0.002}
        of = {"a": 0.0, "b": 100.0}
        return RiskModel(shares, oh, of, gamma_h, gamma_f)

    def test_defaults_match_paper(self):
        assert DEFAULT_GAMMA_H == 1e5
        assert DEFAULT_GAMMA_F == 1e3

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            self.toy_model(gamma_h=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e9])
    @pytest.mark.parametrize("gamma", ["gamma_h", "gamma_f"])
    def test_bad_gamma_named(self, gamma, bad):
        with pytest.raises(ValueError, match=f"^{gamma} must be finite"):
            self.toy_model(**{gamma: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e9])
    @pytest.mark.parametrize("field", ["share", "o_h", "o_f"])
    def test_bad_pop_input_named(self, field, bad):
        maps = {
            "share": {"a": 0.5, "b": 0.5},
            "o_h": {"a": 0.01, "b": 0.002},
            "o_f": {"a": 0.0, "b": 100.0},
        }
        maps[field]["b"] = bad
        with pytest.raises(ValueError, match=f"^{field} of PoP 'b' must be"):
            RiskModel(maps["share"], maps["o_h"], maps["o_f"])

    def test_key_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RiskModel({"a": 1.0}, {"a": 0.1}, {"b": 0.0})

    def test_node_risk_composition(self):
        model = self.toy_model()
        assert model.node_risk("a") == pytest.approx(1e5 * 0.01)
        assert model.node_risk("b") == pytest.approx(1e5 * 0.002 + 1e3 * 100.0)

    def test_impact(self):
        assert self.toy_model().impact("a", "b") == pytest.approx(1.0)

    def test_unknown_pop(self):
        model = self.toy_model()
        with pytest.raises(KeyError):
            model.share("zzz")
        with pytest.raises(KeyError):
            model.historical_risk("zzz")
        with pytest.raises(KeyError):
            model.forecast_risk("zzz")

    def test_with_gammas(self):
        model = self.toy_model().with_gammas(1e6, 0.0)
        assert model.node_risk("b") == pytest.approx(1e6 * 0.002)

    def test_with_forecast_risk(self):
        model = self.toy_model().with_forecast_risk({"a": 50.0, "b": 0.0})
        assert model.node_risk("a") == pytest.approx(1e5 * 0.01 + 1e3 * 50.0)

    def test_with_forecast_risk_mismatch(self):
        with pytest.raises(ValueError):
            self.toy_model().with_forecast_risk({"a": 0.0})

    def test_for_network_integration(self, teliasonera, teliasonera_model):
        model = teliasonera_model
        assert set(model.pop_ids()) == set(teliasonera.pop_ids())
        assert sum(model.share(p) for p in model.pop_ids()) == pytest.approx(1.0)
        assert all(model.historical_risk(p) > 0 for p in model.pop_ids())
        assert all(model.forecast_risk(p) == 0.0 for p in model.pop_ids())
