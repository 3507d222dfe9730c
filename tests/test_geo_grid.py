"""Tests for repro.geo.grid."""

import numpy as np
import pytest

from repro.geo.coords import BoundingBox, GeoPoint
from repro.geo.grid import GeoGrid, GridField

BOX = BoundingBox(0.0, 0.0, 10.0, 20.0)


class TestGeoGrid:
    def test_shape(self):
        grid = GeoGrid(BOX, 5, 10)
        assert grid.shape == (5, 10)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            GeoGrid(BOX, 0, 10)

    def test_cell_sizes(self):
        grid = GeoGrid(BOX, 5, 10)
        assert grid.cell_height_degrees == pytest.approx(2.0)
        assert grid.cell_width_degrees == pytest.approx(2.0)

    def test_cell_center_first(self):
        grid = GeoGrid(BOX, 5, 10)
        assert grid.cell_center(0, 0) == GeoPoint(1.0, 1.0)

    def test_cell_center_out_of_range(self):
        grid = GeoGrid(BOX, 5, 10)
        with pytest.raises(IndexError):
            grid.cell_center(5, 0)

    def test_cell_of_round_trip(self):
        grid = GeoGrid(BOX, 5, 10)
        for i in range(5):
            for j in range(10):
                center = grid.cell_center(i, j)
                assert grid.cell_of(center) == (i, j)

    def test_cell_of_edge_points(self):
        grid = GeoGrid(BOX, 5, 10)
        assert grid.cell_of(GeoPoint(10.0, 20.0)) == (4, 9)
        assert grid.cell_of(GeoPoint(0.0, 0.0)) == (0, 0)

    def test_cell_of_outside_raises(self):
        grid = GeoGrid(BOX, 5, 10)
        with pytest.raises(ValueError):
            grid.cell_of(GeoPoint(-1.0, 5.0))

    def test_centers_count(self):
        grid = GeoGrid(BOX, 3, 4)
        assert len(grid.centers()) == 12

    def test_centers_array_matches_centers(self):
        grid = GeoGrid(BOX, 3, 4)
        arr = grid.centers_array()
        pts = grid.centers()
        assert arr.shape == (12, 2)
        for row, p in zip(arr, pts):
            assert row[0] == pytest.approx(p.lat)
            assert row[1] == pytest.approx(p.lon)

    def test_iteration_yields_all_cells(self):
        grid = GeoGrid(BOX, 2, 3)
        cells = list(grid)
        assert len(cells) == 6
        assert cells[0][:2] == (0, 0)
        assert cells[-1][:2] == (1, 2)


class TestGridField:
    def make_field(self):
        grid = GeoGrid(BOX, 2, 2)
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        return GridField(grid, values)

    def test_shape_mismatch_rejected(self):
        grid = GeoGrid(BOX, 2, 2)
        with pytest.raises(ValueError):
            GridField(grid, np.zeros((3, 2)))

    def test_peak(self):
        field = self.make_field()
        location, value = field.peak()
        assert value == 4.0
        assert location == GeoPoint(7.5, 15.0)

    def test_total_mass(self):
        assert self.make_field().total_mass() == 10.0

    def test_normalized_sums_to_one(self):
        norm = self.make_field().normalized()
        assert norm.total_mass() == pytest.approx(1.0)

    def test_normalized_zero_mass_rejected(self):
        grid = GeoGrid(BOX, 2, 2)
        field = GridField(grid, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            field.normalized()
