"""The declarative op registry: round-trips, versioning, generation.

One table (:mod:`repro.server.ops`) drives parsing, validation,
dispatch, shard routing, client wrappers and CLI subcommands.  These
tests pin the derived views to the table, round-trip every op through
its own declared examples, and exercise the protocol-v2 version
contract on both sides of the wire (satellites 1, 3 and 4 of the
sharded-serving issue).
"""

from __future__ import annotations

import inspect
import json
import random
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RoutingSession
from repro.server import (
    REGISTRY,
    RiskRouteClient,
    ServerConfig,
    ServerError,
    ServerThread,
)
from repro.server import ops
from repro.server.coalesce import PendingRequest
from repro.server.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    encode_reply,
    parse_request,
)
from repro.server.service import QueryService
from tests.conftest import (
    build_diamond_model,
    build_diamond_network,
    build_tied_grid,
    examples,
)


def _example_params(spec: ops.OpSpec) -> dict:
    """The declared example value for every param that has one."""
    return {
        p.name: p.example for p in spec.params if p.example is not None
    }


class TestRegistryShape:
    def test_every_spec_well_formed(self):
        for spec in ops.registered_ops():
            assert spec.kind in ops.KINDS
            assert spec.routing in ops.ROUTINGS
            assert spec.doc
            for param in spec.params:
                assert param.name.isidentifier()
                if param.required:
                    # Required params must carry an example so the
                    # round-trip test below can exercise the op.
                    assert param.example is not None, (
                        spec.name, param.name
                    )

    def test_derived_views_match_table(self):
        assert ops.retry_safe_op_names() == {
            s.name for s in REGISTRY.values()
            if s.kind in ("read", "control")
        }

    def test_barrier_and_retry_semantics(self):
        assert REGISTRY["update_forecast"].is_barrier
        assert not REGISTRY["update_forecast"].retry_safe
        assert REGISTRY["ingest"].is_barrier
        assert not REGISTRY["ingest"].retry_safe
        assert REGISTRY["stats"].is_barrier
        assert REGISTRY["stats"].retry_safe
        assert REGISTRY["subscribe"].is_barrier
        assert REGISTRY["subscribe"].retry_safe
        for name in (
            "route", "pair", "ratios", "provision", "scenario", "shared_risk",
        ):
            assert not REGISTRY[name].is_barrier
            assert REGISTRY[name].retry_safe

    def test_cli_names(self):
        assert ops.spec_for_cli("update-forecast").name == "update_forecast"
        for spec in ops.registered_ops():
            assert ops.spec_for_cli(spec.command) is spec
        with pytest.raises(KeyError):
            ops.spec_for_cli("no-such-command")

    def test_get_spec_unknown_op(self):
        with pytest.raises(ProtocolError) as err:
            ops.get_spec("frobnicate")
        assert err.value.code == "unknown_op"


class TestValidateParams:
    def test_defaults_cover_every_declared_param(self):
        for spec in ops.registered_ops():
            if any(p.required for p in spec.params):
                continue
            validated = ops.validate_params(spec, {})
            assert set(validated) == {p.name for p in spec.params}

    def test_unknown_param_rejected(self):
        with pytest.raises(ProtocolError) as err:
            ops.validate_params(REGISTRY["pair"], {
                "source": "a", "target": "b", "exact": True,
            })
        assert err.value.code == "bad_request"
        assert "exact" in err.value.message

    def test_bool_strategy_rejected(self):
        # The deprecated exact= bool shim is gone: a bool strategy is
        # a typed bad_request, not a warning logged by the daemon.
        for op, params in (
            ("ratios", {}),
            ("route", {"source": "a", "target": "b"}),
        ):
            for flag in (True, False):
                with pytest.raises(ProtocolError) as err:
                    ops.validate_params(
                        REGISTRY[op], {**params, "strategy": flag}
                    )
                assert err.value.code == "bad_request"
                assert "unknown strategy" in err.value.message

    def test_missing_required_rejected(self):
        with pytest.raises(ProtocolError) as err:
            ops.validate_params(REGISTRY["route"], {"source": "a"})
        assert err.value.code == "bad_request"
        assert "target" in err.value.message

    @given(st.text(min_size=1).filter(
        lambda s: s not in {p.name for p in REGISTRY["pair"].params}
    ))
    @settings(max_examples=examples(30), deadline=None)
    def test_any_undeclared_name_is_bad_request(self, name):
        with pytest.raises(ProtocolError) as err:
            ops.validate_params(
                REGISTRY["pair"],
                {"source": "a", "target": "b", name: 1},
            )
        assert err.value.code == "bad_request"


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**31, 2**31),
    st.floats(allow_nan=False, allow_infinity=False), st.text(),
)


class TestEnvelopeRoundTripProperty:
    @given(
        op=st.sampled_from(sorted(REGISTRY)),
        request_id=st.one_of(st.none(), st.integers(), st.text()),
        version=st.integers(1, PROTOCOL_VERSION),
        extra=st.dictionaries(
            st.text(min_size=1).filter(
                lambda k: k not in ("op", "id", "v")
            ),
            json_scalars,
            max_size=4,
        ),
    )
    @settings(max_examples=examples(60), deadline=None)
    def test_parse_inverts_encode(self, op, request_id, version, extra):
        """Any well-formed envelope parses back field-for-field."""
        line = json.dumps(
            {"op": op, "id": request_id, "v": version, **extra}
        ).encode()
        request = parse_request(line)
        assert request.op == op
        assert request.id == request_id
        assert request.v == version
        assert request.params == extra

    @given(version=st.integers(PROTOCOL_VERSION + 1, 2**31))
    @settings(max_examples=examples(20), deadline=None)
    def test_any_future_version_is_typed(self, version):
        with pytest.raises(ProtocolError) as err:
            parse_request(
                json.dumps({"op": "health", "v": version}).encode()
            )
        assert err.value.code == "unsupported_version"

    @pytest.mark.parametrize("bad", [True, "2", 2.0, 0, -1])
    def test_non_integer_or_ancient_version_is_bad_request(self, bad):
        with pytest.raises(ProtocolError) as err:
            parse_request(json.dumps({"op": "health", "v": bad}).encode())
        assert err.value.code == "bad_request"

    def test_v1_requests_still_accepted(self):
        assert parse_request(b'{"op": "health"}').v == 1


class TestHandlerRoundTrip:
    """Examples → validate → handler → encode → parse, for every op."""

    def test_every_handler_op_round_trips(self):
        session = RoutingSession(
            build_diamond_network(), build_diamond_model()
        )
        service = QueryService(session)
        exercised = []
        for spec in ops.registered_ops():
            if spec.handler is None:
                continue
            params = ops.validate_params(spec, _example_params(spec))
            result = spec.handler(service, params)
            assert isinstance(result, dict)
            line = encode_reply(
                7, result, fingerprint=session.engine.risk_fingerprint
            )
            reply = json.loads(line)
            assert reply["ok"] is True
            assert reply["v"] == PROTOCOL_VERSION
            assert reply["result"] == json.loads(json.dumps(result))
            assert reply["fingerprint"] == session.engine.risk_fingerprint
            exercised.append(spec.name)
        assert exercised == [
            "route", "pair", "ratios", "provision", "scenario", "shared_risk",
        ]

    def test_every_handler_op_answers_in_one_batch(self):
        """Every op with a handler answers ok, fingerprinted, from one
        batch."""
        session = RoutingSession(
            build_diamond_network(), build_diamond_model()
        )
        service = QueryService(session)
        batch = []
        for spec in ops.registered_ops():
            if spec.handler is None:
                continue
            batch.append(PendingRequest(
                request=Request(
                    op=spec.name, id=spec.name,
                    params=_example_params(spec), v=PROTOCOL_VERSION,
                ),
                writer=None, arrived=0.0,
            ))
        service.execute_batch(batch)
        for item in batch:
            assert item.ok, item.reply
            reply = json.loads(item.reply)
            assert reply["id"] == item.request.op  # id echoed verbatim
            assert reply["ok"] is True
            assert reply["fingerprint"] == session.engine.risk_fingerprint


class TestBatchValidation:
    """Each request of a batch is validated once; a bad one fails
    only itself."""

    @staticmethod
    def _pair(request_id, params) -> PendingRequest:
        return PendingRequest(
            request=Request(
                op="pair", id=request_id, params=params,
                v=PROTOCOL_VERSION,
            ),
            writer=None, arrived=0.0,
        )

    @staticmethod
    def _service() -> QueryService:
        return QueryService(
            RoutingSession(build_diamond_network(), build_diamond_model())
        )

    def test_each_request_validated_once(self, monkeypatch):
        service = self._service()
        calls = []
        validate = ops.validate_params

        def counting(spec, params):
            calls.append(spec.name)
            return validate(spec, params)

        monkeypatch.setattr(ops, "validate_params", counting)
        params = {"source": "diamond:west", "target": "diamond:east"}
        batch = [self._pair(i, params) for i in range(3)]
        service.execute_batch(batch)
        assert all(item.ok for item in batch)
        assert calls == ["pair"] * 3

    def test_bad_request_fails_only_itself(self):
        good = {"source": "diamond:west", "target": "diamond:east"}
        back = {"source": "diamond:east", "target": "diamond:west"}
        batch = [
            self._pair("good", good),
            self._pair("unknown", {**good, "target": "diamond:atlantis"}),
            self._pair("missing", {"source": "diamond:west"}),
            self._pair("extra", {**good, "bogus": 1}),
            self._pair("back", back),
        ]
        self._service().execute_batch(batch)
        replies = {item.request.id: item for item in batch}
        errors = {
            rid: json.loads(replies[rid].reply)["error"]["code"]
            for rid in ("unknown", "missing", "extra")
        }
        assert errors == {
            "unknown": "unknown_node",
            "missing": "bad_request",
            "extra": "bad_request",
        }
        # The valid requests answer exactly as in a batch of their own.
        clean = [self._pair("good", good), self._pair("back", back)]
        self._service().execute_batch(clean)
        for item in clean:
            assert replies[item.request.id].ok
            assert replies[item.request.id].reply == item.reply


class TestBatchIndependence:
    """A reply does not depend on its batchmates or on what they
    cached."""

    def test_grid_pairs_answer_as_one_per_batch(self):
        """20 ``pair`` requests with distinct sources on a 9x9
        unit-weight grid (full of exactly tied shortest paths) answer
        byte for byte as the same requests served one per batch by a
        fresh service: served as one batch, and served after an
        all-sources ``ratios`` that cached every source's sweeps."""
        graph, model = build_tied_grid()
        nodes = sorted(graph.nodes())
        rng = random.Random(11)
        sources = rng.sample(nodes, 20)
        requests = [
            Request(
                op="pair", id=i, v=PROTOCOL_VERSION,
                params={
                    "source": source,
                    "target": rng.choice([n for n in nodes if n != source]),
                },
            )
            for i, source in enumerate(sources)
        ]
        ratios = Request(
            op="ratios", id=len(requests), v=PROTOCOL_VERSION, params={}
        )

        def item(request):
            return PendingRequest(request=request, writer=None, arrived=0.0)

        alone = QueryService(RoutingSession(graph, model))
        singles = [item(request) for request in requests]
        for single in singles:
            alone.execute_batch([single])
        for prelude in ([], [ratios]):
            batch = [item(request) for request in prelude + requests]
            QueryService(RoutingSession(graph, model)).execute_batch(batch)
            for got in batch:
                assert got.ok, got.reply
            for got, single in zip(batch[len(prelude):], singles):
                assert got.reply == single.reply, single.request.params


class TestRangeChecks:
    """Ranges are checked once, in the library the handler calls; the
    service answers its ValueError as a bad_request naming the param."""

    @pytest.mark.parametrize("op, params", [
        ("provision", {"k": 0}),
        ("provision", {"top": 0}),
        # Not a provision param: answered as unknown, naming it.
        ("provision", {"verify_every": 1}),
        ("scenario", {"scenarios": 0}),
        ("scenario", {"alternates": 0}),
        ("scenario", {"sample_pairs": 0}),
        ("scenario", {"srg_fraction": -0.1}),
        ("scenario", {"srg_fraction": 1.5}),
        ("scenario", {"headroom": -1}),
        ("scenario", {"corridor_miles": 0}),
        ("scenario", {"corridor_miles": -1}),
        ("scenario", {"seed": -1}),
    ])
    def test_out_of_range_is_bad_request(self, op, params):
        item = PendingRequest(
            request=Request(op=op, id=1, params=params, v=PROTOCOL_VERSION),
            writer=None, arrived=0.0,
        )
        QueryService(
            RoutingSession(build_diamond_network(), build_diamond_model())
        ).execute_batch([item])
        assert item.ok is False
        error = json.loads(item.reply)["error"]
        assert error["code"] == "bad_request"
        (name,) = params
        assert name in error["message"]


class TestWireVersioning:
    """The daemon's half of the version contract (satellite 3's peer)."""

    def test_future_version_request_gets_typed_error(self):
        thread = ServerThread(
            RoutingSession(build_diamond_network(), build_diamond_model()),
            ServerConfig(batch_linger=0.002),
        )
        host, port = thread.start()
        try:
            with socket.create_connection((host, port), timeout=10) as sock:
                stream = sock.makefile("rwb")
                stream.write(json.dumps(
                    {"id": 1, "op": "health", "v": 99}
                ).encode() + b"\n")
                stream.flush()
                reply = json.loads(stream.readline())
        finally:
            thread.stop()
        assert reply["ok"] is False
        assert reply["error"]["code"] == "unsupported_version"
        assert reply["v"] == PROTOCOL_VERSION

    def test_client_rejects_future_reply_version(self):
        """A v99 reply raises typed unsupported_version, not KeyError."""
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        host, port = server.getsockname()

        def _serve_one():
            conn, _ = server.accept()
            stream = conn.makefile("rwb")
            request = json.loads(stream.readline())
            stream.write(json.dumps({
                "id": request["id"], "ok": True, "v": 99,
                "future_field": {"shape": "unknowable"},
            }).encode() + b"\n")
            stream.flush()
            conn.close()

        thread = threading.Thread(target=_serve_one, daemon=True)
        thread.start()
        try:
            client = RiskRouteClient(host, port, timeout=10)
            with pytest.raises(ServerError) as err:
                client.health()
            assert err.value.code == "unsupported_version"
            assert "v99" in str(err.value)
            client.close()
        finally:
            thread.join(timeout=10)
            server.close()

    def test_client_sends_its_protocol_version(self):
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        host, port = server.getsockname()
        seen = {}

        def _serve_one():
            conn, _ = server.accept()
            stream = conn.makefile("rwb")
            request = json.loads(stream.readline())
            seen.update(request)
            stream.write(json.dumps({
                "id": request["id"], "ok": True,
                "v": PROTOCOL_VERSION, "result": {"status": "ok"},
            }).encode() + b"\n")
            stream.flush()
            conn.close()

        thread = threading.Thread(target=_serve_one, daemon=True)
        thread.start()
        try:
            client = RiskRouteClient(host, port, timeout=10)
            assert client.health() == {"status": "ok"}
            client.close()
        finally:
            thread.join(timeout=10)
            server.close()
        assert seen["v"] == PROTOCOL_VERSION
        assert seen["op"] == "health"


class TestGeneratedClientWrappers:
    def test_wrapper_signatures_mirror_registry(self):
        for spec in ops.registered_ops():
            method = getattr(RiskRouteClient, spec.name)
            signature = inspect.signature(method)
            names = list(signature.parameters)
            assert names[0] == "self"
            declared = [p.name for p in spec.params]
            # Hand-written methods (update_forecast's and ingest's
            # token plumbing) may extend the declared surface but never
            # drop a declared param.
            for name in declared:
                assert name in names, (spec.name, name)

    def test_generated_wrappers_are_marked(self):
        # pair/route/ratios/stats/health come from the registry.
        for name in ("pair", "route", "ratios", "stats", "health"):
            method = RiskRouteClient.__dict__[name]
            assert method.__name__ == name
            assert ops.REGISTRY[name].doc in (method.__doc__ or "")

    def test_hand_written_methods_survive_generation(self):
        update = inspect.signature(RiskRouteClient.update_forecast)
        assert "token" in update.parameters

    def test_wrappers_reject_undeclared_kwargs(self):
        with pytest.raises(TypeError):
            RiskRouteClient.__dict__["pair"](
                object(), source="a", target="b", exact=True,
            )

    def test_generic_call_and_wrapper_agree(self):
        thread = ServerThread(
            RoutingSession(build_diamond_network(), build_diamond_model()),
            ServerConfig(batch_linger=0.002),
        )
        host, port = thread.start()
        try:
            with RiskRouteClient(host, port) as client:
                via_wrapper = client.pair("diamond:west", "diamond:east")
                via_call = client.call(
                    "pair", source="diamond:west", target="diamond:east"
                )
                assert via_wrapper == via_call
        finally:
            thread.stop()


class TestPrefetchStats:
    """The full sweeps a batch reports as ``computed`` are exactly its
    sweep-cache misses."""

    @staticmethod
    def _item(op, params, request_id) -> PendingRequest:
        return PendingRequest(
            request=Request(
                op=op, id=request_id, params=params, v=PROTOCOL_VERSION
            ),
            writer=None, arrived=0.0,
        )

    def test_computed_sweeps_count_as_misses(
        self, teliasonera, teliasonera_model
    ):
        service = QueryService(RoutingSession(teliasonera, teliasonera_model))
        # A PER_SOURCE route reads its source's expected-impact sweep,
        # which the swap below drops.
        route = {
            "source": "Teliasonera:Miami, FL",
            "target": "Teliasonera:Seattle, WA",
            "strategy": "per-source",
        }
        service.execute_batch([self._item("route", route, 1)])
        swap = self._item(
            "update_forecast",
            {"risk": {"Teliasonera:Miami, FL": 0.5}, "default": 0.0},
            2,
        )
        assert service.apply_update(swap).changed
        misses = service.session.stats()["sweeps"]["misses"]
        metrics = service.execute_batch([self._item("route", route, 3)])
        assert metrics["computed"] > 0
        assert (
            service.session.stats()["sweeps"]["misses"] - misses
            == metrics["computed"]
        )
