"""Tests for the riskroute CLI."""

import json

import pytest

from repro import RiskModel, RoutingSession
from repro.cli import build_parser, main
from repro.server import RiskRouteClient, ServerConfig, ServerThread, ops

MIAMI = "Teliasonera:Miami, FL"
SEATTLE = "Teliasonera:Seattle, WA"


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

    def test_serve_flag_defaults_match_server_config(self):
        """A bare ``serve`` runs the daemon every benchmark measures.
        ``--port`` alone differs: the CLI binds a fixed port."""
        args = vars(build_parser().parse_args(["serve", "Level3"]))
        config = ServerConfig()
        shared = set(args) & set(vars(config)) - {"port"}
        assert shared >= {"max_pending", "batch_linger", "request_timeout"}
        for name in shared:
            assert args[name] == getattr(config, name), name

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
        assert capsys.readouterr().err == "unknown network 'Atlantisnet'\n"

    @pytest.mark.parametrize("flag", [
        ["--max-pending", "0"],
        ["--batch-linger", "-1"],
        ["--request-timeout", "-1"],
        ["--shards", "-1"],
        ["--replicas", "0"],
        ["--batch-linger", "nan"],
        ["--batch-linger", "inf"],
        ["--request-timeout", "nan"],
        ["--request-timeout", "inf"],
        ["--port", "-1"],
        ["--port", "65536"],
    ])
    def test_serve_bad_flag_exits_2_before_building(
        self, capsys, monkeypatch, flag
    ):
        def no_build(*args, **kwargs):
            raise AssertionError("serve built the model for a bad flag")

        monkeypatch.setattr(RiskModel, "for_network", no_build)
        assert main(["serve", "Teliasonera", *flag]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "Traceback" not in err
        # The line names the ServerConfig field the flag sets.
        assert flag[0][2:].replace("-", "_") + " must be" in err

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
            ["query", "ingest", "events.json", "--token", "t1"]
        )
        assert args.query_op == "ingest"
        assert args.events == "events.json"
        assert args.token == "t1"

    @pytest.mark.parametrize("argv", [
        ["ratios", "Level3", "--workers", "2"],
        ["scenario", "Level3", "--workers", "2"],
        ["ingest", "events.json"],
        ["scenario", "Level3", "--no-defense"],
        ["scenario", "Level3", "--json"],
        ["provision", "Teliasonera", "--verify-every", "1"],
        ["query", "--port", "9999", "provision", "--verify-every", "1"],
    ])
    def test_removed_commands_and_flags_are_errors(self, argv):
        # Sweeps and scenarios run serially, ingest is one command
        # (`query ingest`), greedy provisioning has no verification
        # pass, and the local commands take exactly the op's params
        # (`--defense 0`; the reply is always JSON): no alias, no
        # silently ignored flag.
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

    def test_run_one_experiment(self, capsys):
        assert main(["run", "figure6"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("== figure6: ")
        for storm in ("Irene", "Katrina", "Sandy"):
            assert storm in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "table99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("unknown experiment 'table99'")

    def test_route_roundtrip(self, capsys, teliasonera_model):
        code = main(
            ["route", "Teliasonera", MIAMI, SEATTLE, "--gamma-h", "1e6"]
        )
        assert code == 0
        route = json.loads(capsys.readouterr().out)
        assert route["path"][0] == MIAMI
        assert route["path"][-1] == SEATTLE

    def test_route_unknown_network(self, capsys):
        assert main(["route", "Comcast", "A", "B"]) == 2

    def test_pair_unknown_network(self, capsys):
        assert main(["pair", "Atlantisnet", "a", "b"]) == 2
        assert capsys.readouterr().err == "unknown network 'Atlantisnet'\n"

    def test_route_unknown_pop(self, capsys):
        assert main(["route", "Teliasonera", "Nowhere, ZZ", "Miami, FL"]) == 2

    @pytest.mark.parametrize(
        "flag, value", [("--gamma-h", "nan"), ("--gamma-f", "-1")]
    )
    def test_bad_gamma_exits_2_with_one_line(
        self, capsys, teliasonera_model, flag, value
    ):
        assert main(["pair", "Teliasonera", MIAMI, SEATTLE, flag, value]) == 2
        captured = capsys.readouterr()
        gamma = flag[2:].replace("-", "_")
        assert captured.err.startswith(f"{gamma} must be finite")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("top", ["0", "-2"])
    def test_provision_rejects_top_below_one(self, capsys, top):
        assert main(["provision", "Teliasonera", "--top", top]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [bad_request]: ")
        assert err.count("\n") == 1
        assert "top" in err


#: One case per op with a handler: the local command's arguments after
#: the network, and the same request as client keywords.  Provision and
#: scenario leave their counts to the op's defaults.
LOCAL_CASES = [
    ("route", [MIAMI, SEATTLE, "--strategy", "per-source"],
     {"source": MIAMI, "target": SEATTLE, "strategy": "per-source"}),
    ("pair", [MIAMI, SEATTLE], {"source": MIAMI, "target": SEATTLE}),
    ("ratios", [], {}),
    ("provision", [], {}),
    ("scenario", ["--defense", "0"], {"defense": 0}),
    ("shared-risk", ["Sprint"], {"other": "Sprint"}),
]


@pytest.fixture(scope="module")
def teliasonera_client(teliasonera, teliasonera_model):
    """A client of an in-process daemon serving Teliasonera at the
    default gammas."""
    thread = ServerThread(
        RoutingSession(teliasonera, teliasonera_model), ServerConfig()
    )
    host, port = thread.start()
    try:
        with RiskRouteClient(host, port, timeout=120) as client:
            yield client
    finally:
        thread.stop()


class TestLocalOps:
    """The local op commands are generated from the registry and answer
    exactly what the daemon answers."""

    @pytest.mark.parametrize(
        "command, argv, params", LOCAL_CASES, ids=[c[0] for c in LOCAL_CASES]
    )
    def test_local_stdout_is_the_wire_result(
        self, capsys, teliasonera_client, command, argv, params
    ):
        handled = {s.command for s in ops.registered_ops() if s.handler}
        assert {case[0] for case in LOCAL_CASES} == handled
        assert main([command, "Teliasonera", *argv]) == 0
        spec = ops.spec_for_cli(command)
        result = getattr(teliasonera_client, spec.name)(**params)
        expected = json.dumps(result, indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr().out == expected

    def test_unset_flags_leave_the_op_defaults(self):
        # scenario draws the op's 200 scenarios (not 500) and provision
        # returns every recommendation (not the top 10).
        scenario = build_parser().parse_args(["scenario", "Teliasonera"])
        provision = build_parser().parse_args(["provision", "Teliasonera"])
        assert scenario.scenarios is None and provision.top is None
        defaults = {
            (spec.name, param.name): param.default
            for spec in (ops.get_spec("scenario"), ops.get_spec("provision"))
            for param in spec.params
        }
        assert defaults["scenario", "scenarios"] == 200
        assert defaults["provision", "top"] is None
