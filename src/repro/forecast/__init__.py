"""Forecast substrate: storm tracks, advisories, NLP parsing, risk zones."""

from .advisory import Advisory, advisories_for_track, advisory_text, compass_name
from .parser import AdvisoryParseError, ParsedAdvisory, parse_advisory_text
from .projection import (
    ProjectedPosition,
    anticipatory_snapshots,
    project_advisory,
)
from .risk import (
    RHO_HURRICANE,
    RHO_TROPICAL,
    ForecastSnapshot,
    snapshot_from_advisory,
    snapshot_from_text,
    storm_scope,
)
from .storms import (
    PAPER_ADVISORY_COUNTS,
    case_study_storms,
    storm_advisories,
)
from .track import StormTrack, TrackFix, interpolate_waypoints

__all__ = [
    "TrackFix",
    "StormTrack",
    "interpolate_waypoints",
    "Advisory",
    "advisory_text",
    "advisories_for_track",
    "compass_name",
    "ParsedAdvisory",
    "AdvisoryParseError",
    "parse_advisory_text",
    "ProjectedPosition",
    "project_advisory",
    "anticipatory_snapshots",
    "ForecastSnapshot",
    "snapshot_from_advisory",
    "snapshot_from_text",
    "storm_scope",
    "RHO_TROPICAL",
    "RHO_HURRICANE",
    "PAPER_ADVISORY_COUNTS",
    "case_study_storms",
    "storm_advisories",
]
