"""Tests for repro.disasters.seasonal."""

import numpy as np
import pytest

from repro.disasters.catalog import catalog_of
from repro.disasters.events import EventType
from repro.disasters.seasonal import (
    MONTHLY_CLIMATOLOGY,
    assign_months,
    monthly_event_weights,
    seasonal_catalog,
    seasonal_kde,
    seasonal_kdes,
)


class TestClimatology:
    def test_every_class_has_profile(self):
        assert set(MONTHLY_CLIMATOLOGY) == set(EventType.ALL)
        for profile in MONTHLY_CLIMATOLOGY.values():
            assert len(profile) == 12
            assert all(w > 0 for w in profile)

    def test_weights_normalised(self):
        for event_type in EventType.ALL:
            weights = monthly_event_weights(event_type)
            assert weights.sum() == pytest.approx(1.0)

    def test_hurricane_season_peaks_late_summer(self):
        weights = monthly_event_weights(EventType.FEMA_HURRICANE)
        assert int(np.argmax(weights)) + 1 in (8, 9)
        assert weights[8] > 10 * weights[1]  # September >> February

    def test_tornado_season_peaks_spring(self):
        weights = monthly_event_weights(EventType.FEMA_TORNADO)
        assert int(np.argmax(weights)) + 1 in (4, 5, 6)

    def test_earthquakes_flat(self):
        weights = monthly_event_weights(EventType.NOAA_EARTHQUAKE)
        assert weights.max() == pytest.approx(weights.min())

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            monthly_event_weights("typhoon")


class TestAssignment:
    def test_every_event_assigned(self):
        catalog = catalog_of(EventType.FEMA_HURRICANE)
        months = assign_months(catalog)
        assert len(months) == len(catalog)
        assert all(1 <= month <= 12 for month in months)

    def test_deterministic(self):
        catalog = catalog_of(EventType.FEMA_TORNADO)
        a = assign_months(catalog)
        b = assign_months(catalog)
        assert a.tolist() == b.tolist()

    def test_distribution_tracks_climatology(self):
        catalog = catalog_of(EventType.FEMA_HURRICANE)
        months = assign_months(catalog)
        september = int((months == 9).sum())
        february = int((months == 2).sum())
        assert september > 5 * max(1, february)


class TestSeasonalCatalogs:
    def test_months_partition_catalog(self):
        total = sum(
            len(seasonal_catalog(EventType.FEMA_STORM, month))
            for month in range(1, 13)
        )
        assert total == len(catalog_of(EventType.FEMA_STORM))

    def test_invalid_month(self):
        with pytest.raises(ValueError):
            seasonal_catalog(EventType.FEMA_STORM, 13)

    def test_seasonal_kde_bandwidth_widened(self):
        from repro.disasters.catalog import PRETRAINED_BANDWIDTHS

        kde = seasonal_kde(EventType.FEMA_HURRICANE, 9)
        assert kde.bandwidth_miles > PRETRAINED_BANDWIDTHS[
            EventType.FEMA_HURRICANE
        ]

    def test_seasonal_risk_contrast(self):
        """September hurricane *risk* on the Gulf coast dwarfs
        February's once rate multipliers are applied."""
        from repro.disasters.seasonal import (
            seasonal_kdes,
            seasonal_rate_multiplier,
        )
        from repro.geo.coords import GeoPoint
        from repro.risk.historical import HistoricalRiskModel

        new_orleans = GeoPoint(29.95, -90.07)
        hurricane = EventType.FEMA_HURRICANE

        def hurricane_risk(month):
            # The hurricane term of seasonal_historical_model(month).
            model = HistoricalRiskModel(
                {hurricane: seasonal_kdes(month)[hurricane]},
                {hurricane: seasonal_rate_multiplier(hurricane, month)},
            )
            return model.risks_array(
                np.array([[new_orleans.lat, new_orleans.lon]])
            )[0]

        assert hurricane_risk(9) > 5.0 * hurricane_risk(2)

    def test_rate_multipliers_average_to_one(self):
        from repro.disasters.seasonal import seasonal_rate_multiplier

        multipliers = [
            seasonal_rate_multiplier(EventType.FEMA_HURRICANE, month)
            for month in range(1, 13)
        ]
        assert sum(multipliers) / 12 == pytest.approx(1.0)

    def test_seasonal_model_total_risk(self):
        """The seasonal model's aggregate risk responds to the season."""
        from repro.disasters.seasonal import seasonal_historical_model

        new_orleans = np.array([[29.95, -90.07]])
        september = seasonal_historical_model(9).risks_array(new_orleans)
        february = seasonal_historical_model(2).risks_array(new_orleans)
        assert september[0] > february[0]

    def test_seasonal_kdes_cover_active_classes(self):
        kdes = seasonal_kdes(9)
        assert EventType.FEMA_HURRICANE in kdes
        assert EventType.NOAA_WIND in kdes
