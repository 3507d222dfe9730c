"""Tests for repro.core.backup — Section 3.1 deployment hooks."""

import pytest

from repro.core.backup import frr_backup_next_hops, mpls_link_failover
from repro.session import RoutingSession


@pytest.fixture
def session(diamond_network, diamond_model):
    return RoutingSession(diamond_network.distance_graph(), diamond_model)


class TestMplsLinkFailover:
    def test_failover_avoids_link(self, session):
        primary = session.route("diamond:west", "diamond:east")
        first_link = (primary.path[0], primary.path[1])
        backup = mpls_link_failover(
            session, "diamond:west", "diamond:east", first_link
        )
        assert backup is not None
        backup_edges = {
            frozenset(e) for e in zip(backup.path, backup.path[1:])
        }
        assert frozenset(first_link) not in backup_edges

    def test_none_when_bridge(self, diamond_network, diamond_model):
        net = diamond_network.copy()
        net.remove_link("diamond:west", "diamond:south")
        session = RoutingSession(net.distance_graph(), diamond_model)
        backup = mpls_link_failover(
            session,
            "diamond:west",
            "diamond:north",
            ("diamond:west", "diamond:north"),
        )
        # west now reaches north only via ... actually south link removed,
        # west-north removed too => west is isolated.
        assert backup is None


class TestFrrTable:
    def test_table_covers_all_destinations(self, session):
        table = frr_backup_next_hops(session, "diamond:west")
        assert set(table) == {"diamond:north", "diamond:south", "diamond:east"}

    def test_backup_next_hop_differs_from_primary(self, session):
        table = frr_backup_next_hops(session, "diamond:west")
        primaries = session.routes_from(
            "diamond:west", strategy="per-source"
        )
        for target, backup_hop in table.items():
            if backup_hop is None:
                continue
            assert backup_hop != primaries[target].path[1]

    def test_no_alternative_marked_none(self, diamond_network, diamond_model):
        net = diamond_network.copy()
        net.remove_link("diamond:west", "diamond:south")
        session = RoutingSession(net.distance_graph(), diamond_model)
        table = frr_backup_next_hops(session, "diamond:west")
        # Only the north link leaves west: every backup is None.
        assert all(v is None for v in table.values())
