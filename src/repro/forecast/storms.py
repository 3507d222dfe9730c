"""The three case-study storms: Katrina, Irene, Sandy (Sections 4.4, 7.3).

Synthetic tracks are laid along each hurricane's real path and timing
with hand-placed waypoints (position, intensity, wind radii), densified
to exactly the advisory counts the paper reports: 61 for Katrina, 70 for
Irene, 60 for Sandy, spanning the advisory windows quoted in Section 7.3.
"""

from __future__ import annotations

from datetime import datetime
from typing import Dict, List, Tuple

from .advisory import Advisory, advisories_for_track
from .track import StormTrack, interpolate_waypoints

__all__ = [
    "PAPER_ADVISORY_COUNTS",
    "case_study_storms",
    "storm_advisories",
]

#: Advisory counts per storm reported in Section 4.4 of the paper.
PAPER_ADVISORY_COUNTS: Dict[str, int] = {
    "Katrina": 61,
    "Irene": 70,
    "Sandy": 60,
}

# Waypoints: (hour offset, lat, lon, max wind mph, hurricane-force wind
# radius mi, tropical-storm-force wind radius mi).
_Waypoints = Tuple[Tuple[float, float, float, float, float, float], ...]

_KATRINA_WAYPOINTS: _Waypoints = (
    (0.0, 23.2, -75.5, 40.0, 0.0, 70.0),      # forms near the Bahamas
    (24.0, 25.9, -78.0, 65.0, 0.0, 105.0),
    (36.0, 25.6, -80.6, 80.0, 15.0, 115.0),   # first landfall near Homestead
    (48.0, 24.9, -82.0, 100.0, 40.0, 140.0),  # into the Gulf
    (84.0, 25.7, -86.7, 160.0, 90.0, 230.0),  # category 5 peak
    (120.0, 27.9, -89.0, 160.0, 105.0, 230.0),
    (144.0, 29.3, -89.6, 125.0, 100.0, 230.0),  # Louisiana landfall
    (150.0, 30.8, -89.6, 100.0, 70.0, 200.0),   # inland Mississippi
    (161.0, 33.0, -88.9, 50.0, 0.0, 150.0),     # weakening inland
)

_IRENE_WAYPOINTS: _Waypoints = (
    (0.0, 16.9, -60.9, 50.0, 0.0, 105.0),     # east of the Leewards
    (24.0, 18.5, -65.5, 75.0, 30.0, 150.0),   # Puerto Rico
    (48.0, 20.5, -70.0, 90.0, 40.0, 175.0),
    (72.0, 22.5, -74.0, 115.0, 60.0, 205.0),  # Bahamas peak
    (96.0, 24.5, -76.0, 115.0, 70.0, 230.0),
    (120.0, 27.5, -77.5, 110.0, 80.0, 260.0),
    (144.0, 31.5, -77.8, 100.0, 95.0, 260.0),
    (162.0, 34.7, -76.8, 85.0, 110.0, 260.0),  # Outer Banks landfall
    (174.0, 37.0, -75.8, 80.0, 105.0, 250.0),  # Virginia capes
    (186.0, 39.4, -74.4, 75.0, 100.0, 230.0),  # New Jersey
    (192.0, 40.7, -73.9, 70.0, 90.0, 230.0),   # New York City
    (196.0, 42.8, -72.8, 60.0, 70.0, 200.0),   # New England
)

_SANDY_WAYPOINTS: _Waypoints = (
    (0.0, 13.5, -78.0, 45.0, 0.0, 100.0),     # Caribbean genesis
    (24.0, 15.5, -77.5, 65.0, 0.0, 125.0),
    (48.0, 18.5, -76.5, 85.0, 25.0, 140.0),   # Jamaica
    (60.0, 20.5, -75.5, 110.0, 35.0, 175.0),  # Cuba
    (84.0, 24.5, -75.5, 90.0, 50.0, 230.0),   # Bahamas
    (108.0, 27.5, -76.5, 75.0, 80.0, 290.0),
    (132.0, 31.0, -76.0, 75.0, 100.0, 380.0),  # growing enormous
    (156.0, 34.5, -73.5, 80.0, 160.0, 450.0),
    (168.0, 37.8, -72.5, 85.0, 230.0, 485.0),
    (176.0, 39.4, -74.4, 85.0, 280.0, 480.0),  # New Jersey landfall
    (180.0, 40.1, -76.3, 70.0, 210.0, 450.0),  # inland Pennsylvania
)

#: Each storm's waypoints and first advisory time (EDT; Section 7.3,
#: footnote 4), in :func:`case_study_storms` order.
_STORMS: Dict[str, Tuple[_Waypoints, datetime]] = {
    # 7 PM Saturday August 20 2011.
    "Irene": (_IRENE_WAYPOINTS, datetime(2011, 8, 20, 19, 0)),
    # 5 PM Tuesday August 23 2005.
    "Katrina": (_KATRINA_WAYPOINTS, datetime(2005, 8, 23, 17, 0)),
    # 11 AM Monday October 22 2012.
    "Sandy": (_SANDY_WAYPOINTS, datetime(2012, 10, 22, 11, 0)),
}


def case_study_storms() -> Dict[str, StormTrack]:
    """All three storms keyed by name (Irene, Katrina, Sandy), each
    densified to its paper advisory count."""
    return {
        name: StormTrack(
            name,
            interpolate_waypoints(
                waypoints, start, PAPER_ADVISORY_COUNTS[name]
            ),
        )
        for name, (waypoints, start) in _STORMS.items()
    }


def storm_advisories(name: str) -> List[Advisory]:
    """The full advisory sequence of one case-study storm.

    Raises:
        KeyError: for an unknown storm name.
    """
    storms = case_study_storms()
    if name not in storms:
        raise KeyError(f"unknown storm {name!r}; have {sorted(storms)}")
    return advisories_for_track(storms[name])
