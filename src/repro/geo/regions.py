"""Named geographic regions of the continental United States.

The synthetic disaster generators (Section 4.3 of the paper) concentrate
events in the regions where each hazard really occurs — hurricanes on the
Gulf and Atlantic coasts, tornadoes in the central plains, earthquakes on
the west coast.  This module defines those regions as unions of bounding
boxes, plus the state footprints used to confine regional-network
population assignment (Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from .coords import BoundingBox, GeoPoint

__all__ = [
    "Region",
    "GULF_COAST",
    "ATLANTIC_COAST",
    "CENTRAL_PLAINS",
    "WEST_COAST",
    "MIDWEST",
    "NORTHEAST",
    "SOUTHEAST",
    "MOUNTAIN_WEST",
    "STATE_BOXES",
    "states_region",
]


@dataclass(frozen=True)
class Region:
    """A named union of bounding boxes."""

    name: str
    boxes: Tuple[BoundingBox, ...]

    def __post_init__(self) -> None:
        if not self.boxes:
            raise ValueError("a region needs at least one box")

    def contains(self, point: GeoPoint) -> bool:
        """True when any member box contains the point."""
        return any(box.contains(point) for box in self.boxes)


GULF_COAST = Region(
    "gulf-coast",
    (
        BoundingBox(25.0, -98.0, 31.5, -80.0),   # TX coast through FL panhandle
        BoundingBox(24.5, -83.0, 31.0, -79.8),   # Florida peninsula
    ),
)

ATLANTIC_COAST = Region(
    "atlantic-coast",
    (
        BoundingBox(25.0, -82.0, 35.5, -75.0),   # FL through NC
        BoundingBox(35.5, -78.5, 41.5, -71.0),   # VA through NY
        BoundingBox(41.0, -74.0, 45.5, -66.5),   # New England
    ),
)

CENTRAL_PLAINS = Region(
    "central-plains",
    (
        BoundingBox(30.0, -103.0, 45.0, -90.0),  # tornado alley
    ),
)

WEST_COAST = Region(
    "west-coast",
    (
        BoundingBox(32.0, -125.0, 49.0, -114.0),
    ),
)

MIDWEST = Region(
    "midwest",
    (
        BoundingBox(36.0, -97.0, 49.0, -80.5),
    ),
)

NORTHEAST = Region(
    "northeast",
    (
        BoundingBox(38.5, -80.5, 47.5, -66.5),
    ),
)

SOUTHEAST = Region(
    "southeast",
    (
        BoundingBox(24.5, -92.0, 37.0, -75.5),
    ),
)

MOUNTAIN_WEST = Region(
    "mountain-west",
    (
        BoundingBox(31.0, -117.0, 49.0, -102.0),
    ),
)

#: Coarse bounding boxes for the continental US states.  These are the
#: axis-aligned extents of each state; neighbouring boxes overlap.
STATE_BOXES: Dict[str, BoundingBox] = {
    "AL": BoundingBox(30.2, -88.5, 35.0, -84.9),
    "AR": BoundingBox(33.0, -94.6, 36.5, -89.6),
    "AZ": BoundingBox(31.3, -114.8, 37.0, -109.0),
    "CA": BoundingBox(32.5, -124.4, 42.0, -114.1),
    "CO": BoundingBox(37.0, -109.1, 41.0, -102.0),
    "CT": BoundingBox(40.9, -73.7, 42.1, -71.8),
    "DC": BoundingBox(38.8, -77.1, 39.0, -76.9),
    "DE": BoundingBox(38.4, -75.8, 39.8, -75.0),
    "FL": BoundingBox(24.5, -87.6, 31.0, -80.0),
    "GA": BoundingBox(30.4, -85.6, 35.0, -80.8),
    "IA": BoundingBox(40.4, -96.6, 43.5, -90.1),
    "ID": BoundingBox(42.0, -117.2, 49.0, -111.0),
    "IL": BoundingBox(37.0, -91.5, 42.5, -87.0),
    "IN": BoundingBox(37.8, -88.1, 41.8, -84.8),
    "KS": BoundingBox(37.0, -102.1, 40.0, -94.6),
    "KY": BoundingBox(36.5, -89.6, 39.1, -81.9),
    "LA": BoundingBox(29.0, -94.0, 33.0, -89.0),
    "MA": BoundingBox(41.2, -73.5, 42.9, -69.9),
    "MD": BoundingBox(37.9, -79.5, 39.7, -75.0),
    "ME": BoundingBox(43.1, -71.1, 47.5, -66.9),
    "MI": BoundingBox(41.7, -90.4, 48.3, -82.4),
    "MN": BoundingBox(43.5, -97.2, 49.4, -89.5),
    "MO": BoundingBox(36.0, -95.8, 40.6, -89.1),
    "MS": BoundingBox(30.2, -91.7, 35.0, -88.1),
    "MT": BoundingBox(44.4, -116.1, 49.0, -104.0),
    "NC": BoundingBox(33.8, -84.3, 36.6, -75.5),
    "ND": BoundingBox(45.9, -104.1, 49.0, -96.6),
    "NE": BoundingBox(40.0, -104.1, 43.0, -95.3),
    "NH": BoundingBox(42.7, -72.6, 45.3, -70.6),
    "NJ": BoundingBox(38.9, -75.6, 41.4, -73.9),
    "NM": BoundingBox(31.3, -109.1, 37.0, -103.0),
    "NV": BoundingBox(35.0, -120.0, 42.0, -114.0),
    "NY": BoundingBox(40.5, -79.8, 45.0, -71.9),
    "OH": BoundingBox(38.4, -84.8, 42.0, -80.5),
    "OK": BoundingBox(33.6, -103.0, 37.0, -94.4),
    "OR": BoundingBox(42.0, -124.6, 46.3, -116.5),
    "PA": BoundingBox(39.7, -80.5, 42.3, -74.7),
    "RI": BoundingBox(41.1, -71.9, 42.0, -71.1),
    "SC": BoundingBox(32.0, -83.4, 35.2, -78.5),
    "SD": BoundingBox(42.5, -104.1, 45.9, -96.4),
    "TN": BoundingBox(35.0, -90.3, 36.7, -81.6),
    "TX": BoundingBox(25.8, -106.6, 36.5, -93.5),
    "UT": BoundingBox(37.0, -114.1, 42.0, -109.0),
    "VA": BoundingBox(36.5, -83.7, 39.5, -75.2),
    "VT": BoundingBox(42.7, -73.4, 45.0, -71.5),
    "WA": BoundingBox(45.5, -124.8, 49.0, -116.9),
    "WI": BoundingBox(42.5, -92.9, 47.1, -86.8),
    "WV": BoundingBox(37.2, -82.6, 40.6, -77.7),
    "WY": BoundingBox(41.0, -111.1, 45.0, -104.0),
}


def states_region(codes: Iterable[str]) -> Region:
    """Build a :class:`Region` from two-letter state codes.

    Used to confine the population of geographically constrained regional
    networks to the states where they have infrastructure (Section 5.1).

    Raises:
        KeyError: for an unknown state code.
    """
    boxes = tuple(STATE_BOXES[code] for code in codes)
    name = "states:" + "+".join(sorted(codes))
    return Region(name, boxes)
