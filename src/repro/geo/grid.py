"""Raster grids over a bounding box.

The kernel density fields of Figure 4 and the storm-scope plots of
Figures 5-6 are evaluated on a regular latitude/longitude grid.  A
:class:`GeoGrid` owns the cell geometry and converts between cell indices
and cell-centre :class:`~repro.geo.coords.GeoPoint` values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

import numpy as np

from .coords import BoundingBox, GeoPoint

__all__ = ["GeoGrid", "GridField"]


@dataclass(frozen=True)
class GeoGrid:
    """A regular n_lat x n_lon grid of cells covering a bounding box."""

    box: BoundingBox
    n_lat: int
    n_lon: int

    def __post_init__(self) -> None:
        if self.n_lat < 1 or self.n_lon < 1:
            raise ValueError("grid must have at least one cell per axis")

    @property
    def shape(self) -> Tuple[int, int]:
        """Grid shape as ``(n_lat, n_lon)``."""
        return (self.n_lat, self.n_lon)

    @property
    def cell_height_degrees(self) -> float:
        """Latitudinal size of one cell in degrees."""
        return self.box.height_degrees / self.n_lat

    @property
    def cell_width_degrees(self) -> float:
        """Longitudinal size of one cell in degrees."""
        return self.box.width_degrees / self.n_lon

    def cell_center(self, i: int, j: int) -> GeoPoint:
        """Centre of the cell at row ``i`` (south→north), column ``j``."""
        if not (0 <= i < self.n_lat and 0 <= j < self.n_lon):
            raise IndexError(f"cell ({i}, {j}) outside grid {self.shape}")
        lat = self.box.south + (i + 0.5) * self.cell_height_degrees
        lon = self.box.west + (j + 0.5) * self.cell_width_degrees
        return GeoPoint(lat, lon)

    def cell_of(self, point: GeoPoint) -> Tuple[int, int]:
        """Return the (i, j) cell containing ``point``.

        Points on the north/east edges are assigned to the last cell.

        Raises:
            ValueError: if the point lies outside the grid's bounding box.
        """
        if not self.box.contains(point):
            raise ValueError(f"{point} outside grid box {self.box}")
        i = int((point.lat - self.box.south) / self.cell_height_degrees)
        j = int((point.lon - self.box.west) / self.cell_width_degrees)
        return (min(i, self.n_lat - 1), min(j, self.n_lon - 1))

    def centers(self) -> List[GeoPoint]:
        """All cell centres in row-major (south-to-north) order."""
        return [
            self.cell_center(i, j)
            for i in range(self.n_lat)
            for j in range(self.n_lon)
        ]

    def centers_array(self) -> "np.ndarray":
        """All cell centres as an (n_lat*n_lon, 2) array of (lat, lon)."""
        lats = self.box.south + (np.arange(self.n_lat) + 0.5) * self.cell_height_degrees
        lons = self.box.west + (np.arange(self.n_lon) + 0.5) * self.cell_width_degrees
        grid_lat, grid_lon = np.meshgrid(lats, lons, indexing="ij")
        return np.column_stack([grid_lat.ravel(), grid_lon.ravel()])

    def __iter__(self) -> Iterator[Tuple[int, int, GeoPoint]]:
        for i in range(self.n_lat):
            for j in range(self.n_lon):
                yield (i, j, self.cell_center(i, j))


@dataclass
class GridField:
    """A scalar field sampled on a :class:`GeoGrid`.

    Wraps an ``(n_lat, n_lon)`` array of values with the owning grid so
    experiments can report peaks, mass by region and normalised maps.
    """

    grid: GeoGrid
    values: "np.ndarray" = field(repr=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )

    def peak(self) -> Tuple[GeoPoint, float]:
        """Return (location, value) of the maximum cell."""
        flat_index = int(np.argmax(self.values))
        i, j = divmod(flat_index, self.grid.n_lon)
        return (self.grid.cell_center(i, j), float(self.values[i, j]))

    def total_mass(self) -> float:
        """Sum of all cell values."""
        return float(self.values.sum())

    def normalized(self) -> "GridField":
        """Return a copy scaled so the cells sum to 1 (a discrete pmf).

        Raises:
            ValueError: if the field has zero or negative total mass.
        """
        mass = self.total_mass()
        if mass <= 0:
            raise ValueError("cannot normalise a field with non-positive mass")
        return GridField(self.grid, self.values / mass)
