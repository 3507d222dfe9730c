"""The `scenario` and `shared_risk` registry ops, end to end.

The acceptance bar: the `scenario` op answers identically via a direct
session handler call, a single-process server, and a 2-shard server —
seeded determinism plus the registry's params-routing makes the reply
mode-independent.  `shared_risk` rides the same parity harness.
"""

from __future__ import annotations

import json

import pytest

from repro.server import (
    RiskRouteClient,
    ServerConfig,
    ServerError,
    ServerThread,
)
from repro.server import ops
from repro.server.coalesce import PendingRequest
from repro.server.protocol import PROTOCOL_VERSION, Request, parse_request
from repro.server.service import QueryService
from repro.session import RoutingSession
from tests.conftest import build_diamond_model, build_diamond_network

SCENARIO_PARAMS = {
    "scenarios": 6,
    "seed": 3,
    "sample_pairs": 6,
    "headroom": 1.2,
}


def _direct(op, params):
    session = RoutingSession(build_diamond_network(), build_diamond_model())
    spec = ops.get_spec(op)
    return spec.handler(
        QueryService(session), ops.validate_params(spec, params)
    )


def _via_server(shards, calls):
    thread = ServerThread(
        RoutingSession(build_diamond_network(), build_diamond_model()),
        ServerConfig(batch_linger=0.002, shards=shards),
    )
    host, port = thread.start()
    try:
        with RiskRouteClient(host, port, timeout=120) as client:
            return [getattr(client, op)(**params) for op, params in calls]
    finally:
        thread.stop()


@pytest.mark.timeout(300)
class TestScenarioOpParity:
    def test_direct_single_process_and_sharded_agree(self):
        calls = [
            ("scenario", SCENARIO_PARAMS),
            ("shared_risk", {"other": "diamond"}),
        ]
        direct = [_direct(op, params) for op, params in calls]
        single = _via_server(0, calls)
        sharded = _via_server(2, calls)
        assert single == direct
        assert sharded == direct

    def test_scenario_reply_shape(self):
        report = _direct("scenario", SCENARIO_PARAMS)
        assert report["network"] == "diamond"
        assert report["scenarios"] == SCENARIO_PARAMS["scenarios"]
        assert set(report["shortest"]) == set(report["riskroute"])
        assert report["shortest"]["policy"] == "shortest"
        assert report["riskroute"]["policy"] == "riskroute"

    def test_headroom_zero_means_unlimited(self):
        report = _direct(
            "scenario", {**SCENARIO_PARAMS, "headroom": 0}
        )
        for policy in ("shortest", "riskroute"):
            assert report[policy]["overload_trips"] == 0
            assert report[policy]["depth_distribution"] == {
                "0": SCENARIO_PARAMS["scenarios"]
            }

    def test_scenario_routes_on_the_session_engine(self):
        """A scenario request reuses the serving session's engine: the
        first request warms it, a repeat runs no new sweeps."""
        session = RoutingSession(
            build_diamond_network(), build_diamond_model()
        )
        service = QueryService(session)
        spec = ops.get_spec("scenario")
        params = ops.validate_params(spec, SCENARIO_PARAMS)
        spec.handler(service, params)
        misses = session.engine.stats()["sweeps"]["misses"]
        assert misses > 0
        spec.handler(service, params)
        assert session.engine.stats()["sweeps"]["misses"] == misses

    def test_self_comparison_anchors_shared_risk(self):
        report = _direct("shared_risk", {"other": "diamond"})
        assert report["network_a"] == report["network_b"] == "diamond"
        assert report["colocation_fraction_a"] == 1.0
        assert report["colocation_fraction_b"] == 1.0
        assert report["risk_profile_divergence"] == pytest.approx(0.0)
        assert report["diversification_score"] == pytest.approx(0.0)


class TestOpValidation:
    def test_bad_params_are_bad_request(self):
        thread = ServerThread(
            RoutingSession(build_diamond_network(), build_diamond_model()),
            ServerConfig(batch_linger=0.002),
        )
        host, port = thread.start()
        try:
            with RiskRouteClient(host, port, timeout=60) as client:
                for params in (
                    {"scenarios": 0},
                    {"defense": 5},
                    {"srg_fraction": "lots"},
                ):
                    with pytest.raises(ServerError) as err:
                        client.scenario(**params)
                    assert err.value.code == "bad_request"
                # Scenarios play serially: a fan-out width is an
                # unknown param like any other.
                with pytest.raises(ServerError) as err:
                    client.call("scenario", workers=2)
                assert err.value.code == "bad_request"
                with pytest.raises(ServerError) as err:
                    client.shared_risk(other="atlantis-net")
                assert err.value.code == "bad_request"
        finally:
            thread.stop()

    def test_unknown_other_network_message_is_unquoted(self):
        item = PendingRequest(
            request=Request(
                op="shared_risk", id=1, params={"other": "Atlantisnet"},
                v=PROTOCOL_VERSION,
            ),
            writer=None, arrived=0.0,
        )
        QueryService(
            RoutingSession(build_diamond_network(), build_diamond_model())
        ).execute_batch([item])
        error = json.loads(item.reply)["error"]
        assert error["code"] == "bad_request"
        assert error["message"] == "unknown network 'Atlantisnet'"

    def test_srg_fraction_above_one_rejected(self):
        with pytest.raises(ValueError):
            _direct("scenario", {**SCENARIO_PARAMS, "srg_fraction": 1.5})

    @pytest.mark.parametrize("name", ["headroom", "corridor_miles"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_is_bad_request(self, name, literal):
        # The wire's JSON parser accepts both literals.
        line = (
            f'{{"v": {PROTOCOL_VERSION}, "id": 1, "op": "scenario", '
            f'"scenarios": 2, "{name}": {literal}}}'
        ).encode()
        item = PendingRequest(
            request=parse_request(line), writer=None, arrived=0.0
        )
        QueryService(
            RoutingSession(build_diamond_network(), build_diamond_model())
        ).execute_batch([item])
        assert item.ok is False
        error = json.loads(item.reply)["error"]
        assert error["code"] == "bad_request"
        assert name in error["message"]
