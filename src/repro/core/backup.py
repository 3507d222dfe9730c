"""Deployment hooks: backup paths and reroute tables (Section 3.1).

The paper positions RiskRoute as the path-selection brain inside
existing mechanisms: IP Fast Reroute wants a precomputed backup next hop
per (destination, failed link); MPLS fast reroute wants an explicit
failover path around a single link.  This module computes both
using the bit-risk-miles metric, so the backup that gets installed is the
risk-averse one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..graph.shortest_path import NoPathError
from ..session import RoutingSession
from .riskroute import RouteResult

__all__ = ["BackupPath", "mpls_link_failover", "frr_backup_next_hops"]


@dataclass(frozen=True)
class BackupPath:
    """A failover route avoiding one failed component."""

    failed: Tuple[str, ...]
    route: RouteResult

    @property
    def path(self) -> tuple:
        """The backup node path."""
        return self.route.path


def _session_without_edge(
    session: RoutingSession, edge: Tuple[str, str]
) -> RoutingSession:
    graph = session.graph.copy()
    if graph.has_edge(*edge):
        graph.remove_edge(*edge)
    return RoutingSession(graph, session.model)


def mpls_link_failover(
    session: RoutingSession, source: str, target: str, link: Tuple[str, str]
) -> Optional[BackupPath]:
    """Min-bit-risk path from source to target avoiding one link.

    Returns None when removing the link disconnects the pair.
    """
    try:
        backup = _session_without_edge(session, link).route(source, target)
    except NoPathError:
        return None
    return BackupPath(failed=tuple(link), route=backup)


def frr_backup_next_hops(
    session: RoutingSession, source: str
) -> Dict[str, Optional[str]]:
    """IP Fast Reroute table: for each destination, the backup next hop to
    use when the primary next hop's link fails.

    For every destination the primary RiskRoute path is computed; the
    backup next hop is the first hop of the min-bit-risk path that avoids
    the primary's first link.  ``None`` marks destinations with no
    alternative (the first link is a bridge).
    """
    table: Dict[str, Optional[str]] = {}
    primaries = session.routes_from(source, strategy="per-source")
    for target, primary in primaries.items():
        first_link = (primary.path[0], primary.path[1])
        backup = mpls_link_failover(session, source, target, first_link)
        if backup is None or len(backup.path) < 2:
            table[target] = None
        else:
            table[target] = backup.path[1]
    return table
