"""Geographic shared-risk groups inferred from link geodesics.

Two line-of-sight links whose great-circle paths run through the same
~50-mile corridor cell are, physically, fiber in the same conduit,
bridge crossing or river valley — one backhoe, flood or ice storm takes
both out at once.  This module rasterises every link's geodesic onto a
corridor :class:`~repro.geo.grid.GeoGrid` and groups links by shared
cell: each occupied cell with at least two distinct links becomes one
:class:`SharedRiskGroup` whose *activation* fails every
member link (and any PoP sitting inside the corridor cell)
simultaneously.

Groups carry a risk weight — the mean composed node risk of the PoPs
they touch under the supplied :class:`~repro.risk.model.RiskModel` — so
the Monte Carlo driver can sample activations from the same risk
geography that drives the routing metric, rather than uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from ..geo.coords import CONTINENTAL_US, GeoPoint
from ..geo.distance import haversine_miles, interpolate_great_circle
from ..geo.grid import GeoGrid
from ..topology.network import Network

__all__ = [
    "SharedRiskGroup",
    "SrgIndex",
    "corridor_grid",
    "infer_srgs",
    "link_corridor_cells",
]

#: Statute miles per degree of latitude (spherical Earth).
_MILES_PER_DEGREE_LAT = 69.0


def corridor_grid(corridor_miles: float) -> GeoGrid:
    """A grid over the continental US whose cells are roughly
    ``corridor_miles`` on a side.

    Longitudinal cell width is corrected for the box's mean latitude so
    cells stay approximately square on the ground.

    Raises:
        ValueError: for a corridor size that is not finite and positive.
    """
    if not 0 < corridor_miles < math.inf:
        raise ValueError("corridor_miles must be positive and finite")
    box = CONTINENTAL_US
    mean_lat = math.radians((box.south + box.north) / 2.0)
    n_lat = max(
        1, round(box.height_degrees * _MILES_PER_DEGREE_LAT / corridor_miles)
    )
    n_lon = max(
        1,
        round(
            box.width_degrees
            * _MILES_PER_DEGREE_LAT
            * math.cos(mean_lat)
            / corridor_miles
        ),
    )
    return GeoGrid(box, n_lat=n_lat, n_lon=n_lon)


def link_corridor_cells(
    grid: GeoGrid, a: GeoPoint, b: GeoPoint, step_miles: float
) -> Set[Tuple[int, int]]:
    """The grid cells a link's geodesic passes through.

    The great circle from ``a`` to ``b`` is sampled every
    ``step_miles`` (at least both endpoints); samples outside the
    grid's bounding box are ignored.

    Raises:
        ValueError: for a step that is not finite and positive.
    """
    # NaN fails both comparisons, so it is caught with the infinities.
    if not 0 < step_miles < math.inf:
        raise ValueError("step_miles must be positive and finite")
    length = haversine_miles(a, b)
    samples = max(2, int(math.ceil(length / step_miles)) + 1)
    cells: Set[Tuple[int, int]] = set()
    for k in range(samples):
        point = interpolate_great_circle(a, b, k / (samples - 1))
        if grid.box.contains(point):
            cells.add(grid.cell_of(point))
    return cells


@dataclass(frozen=True)
class SharedRiskGroup:
    """One corridor cell's worth of shared fate.

    Attributes:
        group_id: dense index, ordered by (cell row, cell column).
        cell: the corridor cell ``(i, j)`` the members share.
        links: canonical ``(pop_a, pop_b)`` endpoint pairs of every
            member link.
        pops: PoPs whose own location falls inside the corridor cell
            (they share the conduit's fate — think a carrier hotel on
            the same flood plain).
        risk: mean composed node risk of the PoPs this group touches
            (member-link endpoints plus in-cell PoPs); 1.0 when no risk
            model was supplied.
    """

    group_id: int
    cell: Tuple[int, int]
    links: Tuple[Tuple[str, str], ...]
    pops: Tuple[str, ...]
    risk: float

    @property
    def size(self) -> int:
        """Number of member links."""
        return len(self.links)


class SrgIndex:
    """All shared-risk groups of one network, with spatial lookup."""

    def __init__(self, grid: GeoGrid, groups: Sequence[SharedRiskGroup]):
        self.grid = grid
        self._groups = tuple(groups)
        self._by_cell: Dict[Tuple[int, int], SharedRiskGroup] = {
            g.cell: g for g in self._groups
        }

    @property
    def groups(self) -> Tuple[SharedRiskGroup, ...]:
        """Every group, ordered by corridor cell."""
        return self._groups

    def __len__(self) -> int:
        return len(self._groups)

    def activation_weights(self) -> "np.ndarray":
        """Per-group sampling weights, normalised to sum 1.

        Proportional to ``risk x size`` — a risky corridor carrying
        many links is the likeliest single point of correlated failure.
        Falls back to uniform when every weight is zero.
        """
        weights = np.array(
            [g.risk * g.size for g in self._groups], dtype=np.float64
        )
        total = weights.sum()
        if total <= 0:
            if not len(weights):
                return weights
            return np.full(len(weights), 1.0 / len(weights))
        return weights / total


def infer_srgs(
    network: Network, model=None, corridor_miles: float = 50.0
) -> SrgIndex:
    """Infer the shared-risk groups of one network.

    A cell crossed by fewer than two distinct links yields no group.

    Args:
        network: topology whose links are rasterised.
        model: optional :class:`~repro.risk.model.RiskModel` supplying
            per-PoP node risks for the groups' sampling weights.
        corridor_miles: corridor cell size of the
            :func:`corridor_grid` the links are rasterised onto;
            geodesics are sampled at half this spacing so no traversed
            cell is skipped.

    Raises:
        ValueError: for a ``corridor_miles`` that is not finite and
            positive.
    """
    grid = corridor_grid(corridor_miles)
    step = corridor_miles / 2.0
    by_cell: Dict[Tuple[int, int], List[Tuple[str, str]]] = {}
    for link in network.links():
        cells = link_corridor_cells(
            grid,
            network.pop(link.pop_a).location,
            network.pop(link.pop_b).location,
            step,
        )
        for cell in cells:
            by_cell.setdefault(cell, []).append(link.endpoints)
    pop_cells: Dict[Tuple[int, int], List[str]] = {}
    for pop in network.pops():
        if grid.box.contains(pop.location):
            pop_cells.setdefault(grid.cell_of(pop.location), []).append(
                pop.pop_id
            )
    groups: List[SharedRiskGroup] = []
    for cell in sorted(by_cell):
        links = sorted(set(by_cell[cell]))
        if len(links) < 2:
            continue
        pops = tuple(sorted(pop_cells.get(cell, [])))
        touched = sorted({p for pair in links for p in pair} | set(pops))
        if model is not None:
            risk = float(
                np.mean([model.node_risk(pop_id) for pop_id in touched])
            )
        else:
            risk = 1.0
        groups.append(
            SharedRiskGroup(
                group_id=len(groups),
                cell=cell,
                links=tuple(links),
                pops=pops,
                risk=risk,
            )
        )
    return SrgIndex(grid, groups)
