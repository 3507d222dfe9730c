"""Unit tests for the NDJSON wire protocol layer."""

from __future__ import annotations

import json

import pytest

from repro.server import protocol
from repro.server.ops import REGISTRY
from repro.server.protocol import (
    ERROR_CODES,
    ProtocolError,
    encode_error,
    encode_reply,
    parse_request,
)


class TestParseRequest:
    def test_happy_path(self):
        request = parse_request(
            b'{"id": 7, "op": "route", "source": "a", "target": "b"}'
        )
        assert request.op == "route"
        assert request.id == 7
        assert request.params == {"source": "a", "target": "b"}

    def test_id_defaults_to_none(self):
        assert parse_request(b'{"op": "health"}').id is None

    def test_malformed_json(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b"this is not json\n")
        assert excinfo.value.code == "bad_request"

    def test_non_object(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b"[1, 2, 3]")
        assert excinfo.value.code == "bad_request"

    def test_missing_op(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b'{"id": 1}')
        assert excinfo.value.code == "bad_request"

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b'{"op": "frobnicate"}')
        assert excinfo.value.code == "unknown_op"

    def test_every_op_parses(self):
        for op in REGISTRY:
            assert parse_request(
                json.dumps({"op": op}).encode()
            ).op == op


class TestEncode:
    def test_reply_line(self):
        line = encode_reply(3, {"x": 1.5}, fingerprint="abcd")
        assert line.endswith(b"\n")
        payload = json.loads(line)
        assert payload == {
            "id": 3, "ok": True, "v": protocol.PROTOCOL_VERSION,
            "result": {"x": 1.5}, "fingerprint": "abcd",
        }

    def test_reply_without_fingerprint(self):
        payload = json.loads(encode_reply(None, {}))
        assert "fingerprint" not in payload

    def test_error_line(self):
        payload = json.loads(encode_error(9, "timeout", "too slow"))
        assert payload["ok"] is False
        assert payload["error"] == {"code": "timeout", "message": "too slow"}

    def test_error_rejects_unknown_code(self):
        with pytest.raises(ValueError):
            encode_error(1, "not-a-code", "nope")

    def test_protocol_error_rejects_unknown_code(self):
        with pytest.raises(ValueError):
            ProtocolError("not-a-code", "nope")

    def test_float_round_trip_is_exact(self):
        # The concurrency-parity tests compare served floats to direct
        # session answers for equality; JSON must not perturb them.
        value = 1234.5678901234567
        assert json.loads(encode_reply(1, {"v": value}))["result"]["v"] == value


class TestSerializers:
    def test_route_to_dict(self, diamond_network, diamond_model):
        from repro import RoutingSession

        session = RoutingSession(diamond_network, diamond_model)
        route = session.route("diamond:west", "diamond:east")
        payload = protocol.route_to_dict(route)
        assert payload["source"] == "diamond:west"
        assert payload["target"] == "diamond:east"
        assert payload["path"] == list(route.path)
        assert payload["bit_miles"] == route.bit_miles
        assert payload["bit_risk_miles"] == route.bit_risk_miles

    def test_pair_to_dict(self, diamond_network, diamond_model):
        from repro import RoutingSession

        session = RoutingSession(diamond_network, diamond_model)
        pair = session.pair("diamond:west", "diamond:east")
        payload = protocol.pair_to_dict(pair)
        assert payload["risk_ratio"] == pair.risk_ratio
        assert payload["distance_ratio"] == pair.distance_ratio
        assert payload["shortest"]["path"] == list(pair.shortest.path)

    def test_ratios_to_dict(self, diamond_network, diamond_model):
        from repro import RoutingSession

        result = RoutingSession(diamond_network, diamond_model).all_pairs()
        payload = protocol.ratios_to_dict(result)
        assert payload["pair_count"] == result.pair_count
        assert payload["risk_reduction_ratio"] == result.risk_reduction_ratio

    def test_error_codes_closed_set(self):
        assert "overloaded" in ERROR_CODES
        assert "timeout" in ERROR_CODES
        assert len(set(ERROR_CODES)) == len(ERROR_CODES)
