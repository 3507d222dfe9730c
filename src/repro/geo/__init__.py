"""Geographic substrate: coordinates, great-circle distance, grids, regions."""

from .coords import CONTINENTAL_US, BoundingBox, GeoPoint
from .distance import (
    EARTH_RADIUS_MILES,
    destination_point,
    great_circle_miles,
    haversine_miles,
    interpolate_great_circle,
)
from .grid import GeoGrid, GridField
from .regions import (
    ATLANTIC_COAST,
    CENTRAL_PLAINS,
    GULF_COAST,
    MIDWEST,
    MOUNTAIN_WEST,
    NORTHEAST,
    SOUTHEAST,
    STATE_BOXES,
    WEST_COAST,
    Region,
    states_region,
)

__all__ = [
    "GeoPoint",
    "BoundingBox",
    "CONTINENTAL_US",
    "EARTH_RADIUS_MILES",
    "haversine_miles",
    "great_circle_miles",
    "interpolate_great_circle",
    "destination_point",
    "GeoGrid",
    "GridField",
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
