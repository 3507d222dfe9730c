"""Tests for repro.forecast.projection."""

from datetime import datetime

import numpy as np
import pytest

from repro.forecast.advisory import Advisory
from repro.forecast.projection import (
    CONE_GROWTH_MILES_PER_HOUR,
    LEADS_HOURS,
    LEAD_DISCOUNT_PER_HOUR,
    anticipatory_snapshots,
    project_advisory,
)
from repro.forecast.risk import (
    RHO_HURRICANE,
    RHO_TROPICAL,
    ForecastSnapshot,
    snapshot_from_advisory,
)
from repro.forecast.storms import storm_advisories
from repro.geo.coords import GeoPoint
from repro.geo.distance import destination_point, haversine_miles
from repro.risk.forecasted import ForecastedRiskModel
from repro.topology.network import Network, PoP
from repro.topology.zoo import network_by_name


def moving_storm(speed=15.0, bearing=0.0) -> Advisory:
    return Advisory(
        storm_name="Test",
        number=10,
        time=datetime(2012, 10, 28, 11, 0),
        center=GeoPoint(32.0, -75.0),
        max_wind_mph=90.0,
        hurricane_radius_miles=80.0,
        tropical_radius_miles=220.0,
        motion_bearing_degrees=bearing,
        motion_speed_mph=speed,
    )


class TestProjection:
    def test_centers_advance_along_bearing(self):
        advisory = moving_storm(speed=15.0, bearing=0.0)
        projections = project_advisory(advisory)
        assert [p.lead_hours for p in projections] == list(LEADS_HOURS)
        d12 = haversine_miles(advisory.center, projections[0].center)
        d24 = haversine_miles(advisory.center, projections[1].center)
        assert d12 == pytest.approx(15.0 * 12, rel=1e-3)
        assert d24 == pytest.approx(15.0 * 24, rel=1e-3)
        assert projections[1].center.lat > projections[0].center.lat

    def test_cone_grows_with_lead(self):
        projections = project_advisory(moving_storm())
        assert projections[0].cone_radius_miles == pytest.approx(
            CONE_GROWTH_MILES_PER_HOUR * 12
        )
        cones = [p.cone_radius_miles for p in projections]
        assert cones == sorted(cones) and cones[0] < cones[-1]

    def test_stationary_storm(self):
        projections = project_advisory(moving_storm(speed=0.0))
        assert all(p.center == moving_storm().center for p in projections)

    def test_threatened_radius_includes_cone(self):
        projection = project_advisory(moving_storm())[-1]
        assert projection.lead_hours == 48.0
        assert projection.threatened_radius_miles == pytest.approx(
            220.0 + CONE_GROWTH_MILES_PER_HOUR * 48
        )


def anticipatory_risk_at(advisory, point) -> float:
    """The anticipatory ``o_f`` at one point, read off a one-PoP
    network."""
    probe = Network("probe")
    probe.add_pop(PoP("probe:x", "X", point))
    field = ForecastedRiskModel(anticipatory_snapshots(advisory))
    return field.pop_risks(probe)["probe:x"]


class TestAnticipatorySnapshots:
    def test_current_field_full_weight(self):
        current = anticipatory_snapshots(moving_storm())[0]
        assert current.center == moving_storm().center
        assert current.rho_tropical == RHO_TROPICAL
        assert current.rho_hurricane == RHO_HURRICANE

    def test_weights_decay_with_lead(self):
        snapshots = anticipatory_snapshots(moving_storm())
        weights = [s.rho_hurricane / RHO_HURRICANE for s in snapshots[1:]]
        assert weights == sorted(weights, reverse=True)
        assert all(0.0 < w < 1.0 for w in weights)
        for snapshot, weight in zip(snapshots[1:], weights):
            assert snapshot.rho_tropical == pytest.approx(
                weight * RHO_TROPICAL
            )

    def test_far_leads_dropped(self):
        # The 48-hour lead's weight is below zero: current, 12 h, 24 h.
        snapshots = anticipatory_snapshots(moving_storm())
        assert [s.rho_hurricane < RHO_HURRICANE for s in snapshots] == [
            False, True, True,
        ]


class TestAnticipatoryRiskField:
    def test_prices_future_path(self):
        """A point 300 miles downtrack (outside today's winds) carries
        anticipatory risk."""
        advisory = moving_storm(speed=15.0, bearing=0.0)
        downtrack = destination_point(advisory.center, 0.0, 360.0)
        reactive = advisory.tropical_radius_miles
        assert haversine_miles(advisory.center, downtrack) > reactive
        assert anticipatory_risk_at(advisory, downtrack) > 0.0

    def test_current_risk_undiscounted(self):
        advisory = moving_storm()
        assert anticipatory_risk_at(advisory, advisory.center) == 100.0

    def test_untouched_areas_zero(self):
        assert anticipatory_risk_at(
            moving_storm(), GeoPoint(47.0, -120.0)
        ) == 0.0

    def test_pop_risks_and_threatened(self, diamond_network):
        # A storm south of the diamond heading north threatens it.
        advisory = Advisory(
            storm_name="Test",
            number=1,
            time=datetime(2012, 10, 28, 11, 0),
            center=GeoPoint(32.0, -95.0),
            max_wind_mph=90.0,
            hurricane_radius_miles=60.0,
            tropical_radius_miles=150.0,
            motion_bearing_degrees=0.0,
            motion_speed_mph=14.0,
        )
        reactive_risks = {
            pop.pop_id
            for pop in diamond_network.pops()
            if haversine_miles(pop.location, advisory.center) <= 150.0
        }
        field = ForecastedRiskModel(anticipatory_snapshots(advisory))
        threatened = set(field.pops_in_scope(diamond_network))
        assert threatened >= reactive_risks
        assert "diamond:south" in threatened  # in the projected path
        risks = field.pop_risks(diamond_network)
        assert set(risks) == {p.pop_id for p in diamond_network.pops()}


class TestOneForecastField:
    """Reactive and anticipatory ``o_f`` come from one producer,
    :class:`ForecastedRiskModel`, and match a per-PoP reference built
    from one-row ``risks_many`` calls, bit for bit."""

    @staticmethod
    def _reference(advisory, pop, anticipatory):
        row = np.array([[pop.location.lat, pop.location.lon]])
        best = snapshot_from_advisory(advisory).risks_many(row)[0]
        if not anticipatory:
            return best
        for projection in project_advisory(advisory):
            weight = 1.0 - LEAD_DISCOUNT_PER_HOUR * projection.lead_hours
            if weight <= 0.0:
                continue
            unit = ForecastSnapshot(
                center=projection.center,
                hurricane_radius_miles=(
                    projection.hurricane_radius_miles
                    + projection.cone_radius_miles
                ),
                tropical_radius_miles=projection.threatened_radius_miles,
            )
            best = max(best, weight * unit.risks_many(row)[0])
        return best

    @pytest.mark.parametrize("name", ["Tinet", "Level3"])
    def test_fields_match_reference_and_scope(self, name):
        network = network_by_name(name)
        for advisory in storm_advisories("Sandy")[28:60:8]:
            fields = {
                False: ForecastedRiskModel([snapshot_from_advisory(advisory)]),
                True: ForecastedRiskModel(anticipatory_snapshots(advisory)),
            }
            scopes = {}
            for anticipatory, field in fields.items():
                risks = field.pop_risks(network)
                assert list(risks) == network.pop_ids()
                for pop in network.pops():
                    expected = self._reference(advisory, pop, anticipatory)
                    assert risks[pop.pop_id].hex() == float(expected).hex()
                scopes[anticipatory] = field.pops_in_scope(network)
                assert scopes[anticipatory] == [
                    pop_id for pop_id, risk in risks.items() if risk > 0.0
                ]
            assert set(scopes[True]) >= set(scopes[False])
