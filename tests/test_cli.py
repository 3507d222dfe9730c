"""Tests for the riskroute CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_route_defaults(self):
        args = build_parser().parse_args(
            ["route", "Level3", "Houston, TX", "Boston, MA"]
        )
        assert args.gamma_h == 1e5
        assert args.gamma_f == 1e3

    def test_route_overrides(self):
        args = build_parser().parse_args(
            [
                "route", "Level3", "A", "B",
                "--gamma-h", "1e6", "--gamma-f", "0",
            ]
        )
        assert args.gamma_h == 1e6
        assert args.gamma_f == 0.0


class TestVersion:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_dunder_version_matches_pyproject(self):
        import re
        from pathlib import Path

        import repro

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        declared = re.search(
            r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.MULTILINE
        ).group(1)
        assert repro.__version__ == declared


class TestServeQueryParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "Level3"])
        assert args.command == "serve"
        assert args.port == 4174
        assert args.max_pending == 256
        assert args.request_timeout == 30.0

    def test_serve_overrides(self):
        args = build_parser().parse_args(
            ["serve", "Level3", "--port", "0", "--max-pending", "8",
             "--batch-linger", "0.01"]
        )
        assert args.port == 0
        assert args.max_pending == 8
        assert args.batch_linger == 0.01

    def test_query_route(self):
        args = build_parser().parse_args(
            ["query", "--port", "9999", "route", "a", "b",
             "--strategy", "per-source"]
        )
        assert args.command == "query"
        assert args.query_op == "route"
        assert args.strategy == "per-source"

    def test_query_requires_op(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--port", "9999"])

    def test_serve_unknown_network(self, capsys):
        assert main(["serve", "Atlantisnet"]) == 2

    def test_query_connection_refused(self, capsys):
        # A port in TEST-NET territory nothing listens on.
        code = main(["query", "--port", "1", "--timeout", "2", "health"])
        assert code == 2
        assert "cannot connect" in capsys.readouterr().err

    def test_query_retries_flag(self):
        args = build_parser().parse_args(
            ["query", "--port", "9999", "--retries", "3", "health"]
        )
        assert args.retries == 3

    def test_query_ingest_flags(self):
        args = build_parser().parse_args(
            ["query", "ingest", "events.json", "--now-year", "2005",
             "--token", "t1"]
        )
        assert args.query_op == "ingest"
        assert args.events == "events.json"
        assert args.now_year == 2005
        assert args.token == "t1"

    @pytest.mark.parametrize("argv", [
        ["ratios", "Level3", "--workers", "2"],
        ["scenario", "Level3", "--workers", "2"],
        ["ingest", "events.json"],
    ])
    def test_removed_commands_and_flags_are_errors(self, argv):
        # Sweeps and scenarios run serially, and ingest is one command
        # (`query ingest`): no alias, no silently ignored flag.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2


class _FakeQueryClient:
    """Stands in for RiskRouteClient to drive `_cmd_query` error paths."""

    error: Exception = None

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        pass

    def health(self):
        raise type(self).error


class TestQueryErrorMapping:
    """Satellite: timeouts and mid-call drops exit 1 with one stderr
    line instead of a traceback."""

    @pytest.fixture
    def fake_client(self, monkeypatch):
        import repro.server

        monkeypatch.setattr(
            repro.server, "RiskRouteClient", _FakeQueryClient
        )
        return _FakeQueryClient

    def test_socket_timeout_exits_1(self, capsys, fake_client):
        import socket

        fake_client.error = socket.timeout("timed out")
        code = main(["query", "--port", "9", "--timeout", "2", "health"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "timed out after 2s" in err
        assert "127.0.0.1:9" in err

    def test_mid_call_drop_exits_1(self, capsys, fake_client):
        fake_client.error = ConnectionError("server closed the connection")
        code = main(["query", "--port", "9", "health"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "connection to 127.0.0.1:9 failed" in err
        assert "server closed" in err

    def test_server_error_still_exits_1(self, capsys, fake_client):
        from repro.server import ServerError

        fake_client.error = ServerError("overloaded", "queue full")
        code = main(["query", "--port", "9", "health"])
        assert code == 1
        assert "overloaded" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out
        assert "figure13" in out

    def test_corpus(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert "Level3" in out
        assert "Telepak" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "table99"]) == 2

    def test_route_roundtrip(self, capsys, teliasonera_model):
        code = main(
            [
                "route", "Teliasonera", "Miami, FL", "Seattle, WA",
                "--gamma-h", "1e6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shortest" in out
        assert "riskroute" in out

    def test_route_unknown_network(self, capsys):
        assert main(["route", "Comcast", "A", "B"]) == 2

    def test_route_unknown_pop(self, capsys):
        assert main(["route", "Teliasonera", "Nowhere, ZZ", "Miami, FL"]) == 2

    @pytest.mark.parametrize("top", ["0", "-2"])
    def test_provision_rejects_top_below_one(self, capsys, top):
        assert main(["provision", "Teliasonera", "--top", top]) == 2
        assert "--top" in capsys.readouterr().err
