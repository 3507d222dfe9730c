"""Shared-risk-group inference: corridor grids, rasterised geodesics.

Pins the geometry (cell sizing, geodesic rasterisation), the grouping
contract (two-link minimum, dense ordered ids), and the risk-weighted
activation sampling the Monte Carlo driver draws from.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geo.coords import CONTINENTAL_US, GeoPoint
from repro.scenario import SrgIndex, corridor_grid, infer_srgs
from repro.scenario.srg import link_corridor_cells
from tests.conftest import build_diamond_model, build_diamond_network


class TestCorridorGrid:
    def test_cells_are_about_corridor_sized(self):
        grid = corridor_grid(50.0)
        lat_miles = CONTINENTAL_US.height_degrees * 69.0 / grid.n_lat
        assert 40.0 <= lat_miles <= 60.0

    def test_coarser_corridor_fewer_cells(self):
        fine = corridor_grid(25.0)
        coarse = corridor_grid(200.0)
        assert fine.n_lat > coarse.n_lat
        assert fine.n_lon > coarse.n_lon

    def test_non_positive_corridor_rejected(self):
        for bad in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="corridor_miles"):
                corridor_grid(bad)


class TestLinkCorridorCells:
    def test_long_link_crosses_many_cells(self):
        grid = corridor_grid(50.0)
        cells = link_corridor_cells(
            grid, GeoPoint(39.0, -100.0), GeoPoint(39.0, -90.0), 25.0
        )
        # ~535 miles of geodesic through ~50-mile cells.
        assert len(cells) >= 8
        for cell in cells:
            assert 0 <= cell[0] < grid.n_lat
            assert 0 <= cell[1] < grid.n_lon

    def test_degenerate_link_occupies_one_cell(self):
        grid = corridor_grid(50.0)
        point = GeoPoint(39.0, -100.0)
        assert len(link_corridor_cells(grid, point, point, 25.0)) == 1

    def test_out_of_box_samples_ignored(self):
        grid = corridor_grid(50.0)
        cells = link_corridor_cells(
            grid, GeoPoint(60.0, -100.0), GeoPoint(61.0, -100.0), 10.0
        )
        assert cells == set()

    def test_non_positive_step_rejected(self):
        grid = corridor_grid(50.0)
        for bad in (0.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="step_miles"):
                link_corridor_cells(
                    grid, GeoPoint(39.0, -100.0), GeoPoint(39.0, -90.0), bad
                )


class TestInferSrgs:
    def test_diamond_groups_share_corridors(self, diamond_network):
        srgs = infer_srgs(build_diamond_network())
        assert len(srgs) > 0
        for group in srgs.groups:
            assert group.size >= 2
            for pair in group.links:
                assert pair == tuple(sorted(pair))
        # Dense, cell-ordered ids.
        assert [g.group_id for g in srgs.groups] == list(range(len(srgs)))
        assert [g.cell for g in srgs.groups] == sorted(
            g.cell for g in srgs.groups
        )

    def test_risk_comes_from_model(self, diamond_network):
        unweighted = infer_srgs(diamond_network)
        weighted = infer_srgs(diamond_network, build_diamond_model())
        assert all(g.risk == 1.0 for g in unweighted.groups)
        assert all(g.risk > 0 for g in weighted.groups)
        assert any(g.risk != 1.0 for g in weighted.groups)

    def test_min_links_filters_groups(self, diamond_network):
        """Only the cells that two or more links cross become groups."""
        grid = corridor_grid(50.0)
        crossings = {}
        for link in diamond_network.links():
            for cell in link_corridor_cells(
                grid,
                diamond_network.pop(link.pop_a).location,
                diamond_network.pop(link.pop_b).location,
                25.0,
            ):
                crossings.setdefault(cell, set()).add(link.endpoints)
        shared = sorted(c for c, links in crossings.items() if len(links) > 1)
        assert len(shared) < len(crossings)
        groups = infer_srgs(diamond_network).groups
        assert [g.cell for g in groups] == shared

    def test_non_finite_corridor_rejected_by_name(self, diamond_network):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="corridor_miles"):
                infer_srgs(diamond_network, corridor_miles=bad)

    def test_activation_weights_normalised(self, diamond_network):
        srgs = infer_srgs(diamond_network, build_diamond_model())
        weights = srgs.activation_weights()
        assert len(weights) == len(srgs)
        assert weights.sum() == pytest.approx(1.0)
        assert (weights > 0).all()

    def test_empty_index_yields_empty_weights(self):
        srgs = SrgIndex(corridor_grid(50.0), [])
        assert len(srgs) == 0
        assert srgs.activation_weights().shape == (0,)

    def test_uniform_fallback_for_zero_risk(self, diamond_network):
        srgs = infer_srgs(diamond_network)
        zeroed = SrgIndex(
            srgs.grid,
            [
                type(g)(
                    group_id=g.group_id, cell=g.cell, links=g.links,
                    pops=g.pops, risk=0.0,
                )
                for g in srgs.groups
            ],
        )
        weights = zeroed.activation_weights()
        assert np.allclose(weights, 1.0 / len(zeroed))
