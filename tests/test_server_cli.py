"""End-to-end daemon smoke: ``riskroute serve`` + ``riskroute query``.

Run as real subprocesses: start the daemon on an ephemeral port, drive
it through route / update_forecast / ingest / stats queries, then
SIGINT it and assert a clean drain.  This is the server smoke CI runs.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _env():
    env = dict(os.environ)
    src = str(REPO / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def _cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, timeout=120, env=_env(), **kwargs
    )


@pytest.fixture(scope="module")
def daemon():
    """A ``riskroute serve`` subprocess on an ephemeral port."""
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", "Teliasonera",
            "--port", "0", "--request-timeout", "60",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_env(),
    )
    try:
        banner = process.stdout.readline()
        assert "serving Teliasonera" in banner, (
            banner + (process.stderr.read() if process.poll() else "")
        )
        port = int(banner.rsplit(":", 1)[1])
        yield process, port
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)


def test_cli_version():
    result = _cli("--version")
    assert result.returncode == 0
    assert "riskroute" in result.stdout


def test_serve_query_smoke(daemon, tmp_path):
    process, port = daemon

    result = _cli("query", "--port", str(port), "health")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["status"] == "ok"

    result = _cli(
        "query", "--port", str(port), "route",
        "Teliasonera:Miami, FL", "Teliasonera:Seattle, WA",
    )
    assert result.returncode == 0, result.stderr
    route = json.loads(result.stdout)
    assert route["path"][0] == "Teliasonera:Miami, FL"
    assert route["path"][-1] == "Teliasonera:Seattle, WA"
    assert route["bit_risk_miles"] > 0

    advisory = json.dumps({"Teliasonera:Miami, FL": 0.8})
    result = _cli(
        "query", "--port", str(port), "update-forecast", "-",
        input=advisory,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["changed"] is True

    # A tokened ingest applies once; the same call again is answered
    # from the token ledger.
    events = tmp_path / "events.json"
    events.write_text(json.dumps([{
        "event_type": "fema-hurricane", "lat": 25.77, "lon": -80.19,
        "year": 2005,
    }]))
    for duplicate in (False, True):
        result = _cli(
            "query", "--port", str(port), "ingest", str(events),
            "--token", "t1",
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["duplicate"] is duplicate

    result = _cli("query", "--port", str(port), "stats")
    assert result.returncode == 0, result.stderr
    stats = json.loads(result.stdout)
    assert stats["forecast_swaps"] == 1
    assert stats["ingests"] == 1
    assert stats["replies"] >= 3
    assert stats["network"] == "Teliasonera"

    result = _cli(
        "query", "--port", str(port), "route",
        "Teliasonera:Atlantis, XX", "Teliasonera:Seattle, WA",
    )
    assert result.returncode == 1
    assert "unknown_node" in result.stderr


def test_serve_unknown_pop_in_query(daemon):
    _, port = daemon
    result = _cli("query", "--port", str(port), "pair",
                  "Teliasonera:Miami, FL", "nope")
    assert result.returncode == 1
    assert "unknown_node" in result.stderr


def test_sigint_drains_cleanly(daemon):
    process, port = daemon
    # One final probe proves it is alive, then interrupt it.
    assert _cli("query", "--port", str(port), "health").returncode == 0
    process.send_signal(signal.SIGINT)
    assert process.wait(timeout=60) == 0
    remainder = process.stdout.read()
    assert "drained and stopped" in remainder
    # And the port actually closed.
    time.sleep(0.1)
    result = _cli("query", "--port", str(port), "--timeout", "5", "health")
    assert result.returncode == 2
