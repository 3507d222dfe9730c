"""The wire protocol: newline-delimited JSON over TCP.

One request per line, one reply per line, UTF-8.  A request is a JSON
object with an ``op`` field, an optional ``id`` (echoed verbatim on the
reply, so clients may pipeline), an optional envelope version ``v``
(assumed 1 when absent), and op-specific parameters::

    {"id": 7, "v": 2, "op": "route", "source": "Level3:Houston, TX",
     "target": "Level3:Boston, MA", "strategy": "exact"}

Replies carry ``ok`` and the server's envelope version.  Successful
routed replies are tagged with the engine's risk fingerprint at the
moment the answer was computed — the observable half of the atomic
forecast-swap guarantee (no reply ever mixes pre- and post-advisory
risk, and the tag tells you which side of an ``update_forecast``
barrier a reply came from)::

    {"id": 7, "v": 2, "ok": true, "result": {...}, "fingerprint": "9f32..."}
    {"id": 7, "v": 2, "ok": false, "error": {"code": "unknown_node",
                                             "message": "..."}}

Versioning contract: a request whose ``v`` exceeds the server's
:data:`PROTOCOL_VERSION` is answered with a typed
``unsupported_version`` error instead of being misparsed; a client
seeing a reply ``v`` above its own raises the same typed error instead
of a ``KeyError`` on fields it does not know.  v1 requests (no ``v``)
are always accepted — v2 only added the envelope version itself.

Error codes are a closed set (:data:`ERROR_CODES`); clients switch on
``code``, never on message text.  Lines longer than
:data:`MAX_LINE_BYTES` are answered with ``too_large`` and the
connection is closed (the rest of the oversized line cannot be framed
reliably).

The op vocabulary itself is the declarative registry in
:mod:`repro.server.ops`, which imports this module's errors and
serializers.

``update_forecast`` accepts an optional idempotency ``token`` (string):
the daemon applies a given token at most once and answers retries of an
already-applied token with ``"duplicate": true`` in the result, so a
client that lost the original reply to a connection drop can re-send
safely.  A swap that fails server-side (``internal``) is rolled back —
the fingerprint on subsequent replies proves the risk field did not
move — and does *not* consume the token.

``health`` reports ``status`` as ``ok``, ``degraded`` (a worker or
shard crash was survived; ``degraded_reason`` says why, and the state
clears once a batch completes cleanly) or ``draining``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = [
    "PROTOCOL_VERSION",
    "ERROR_CODES",
    "MAX_LINE_BYTES",
    "ProtocolError",
    "Request",
    "parse_request",
    "encode_reply",
    "encode_error",
    "route_to_dict",
    "pair_to_dict",
    "ratios_to_dict",
    "recommendation_to_dict",
]

#: The envelope version this build speaks.  v1: unversioned envelope.
#: v2: ``v`` on requests and replies, ``unsupported_version`` errors.
PROTOCOL_VERSION = 2

#: Cap on one request line the daemon reads; a longer line is answered
#: ``too_large``.
MAX_LINE_BYTES = 1 << 20

#: The closed error vocabulary.
ERROR_CODES = (
    "bad_request",    # not JSON, not an object, missing/unknown fields
    "unknown_op",     # op outside the registry
    "unknown_node",   # a PoP name the topology does not contain
    "no_path",        # endpoints in different components
    "too_large",      # request line over the cap (connection closes)
    "overloaded",     # pending queue full; retry later
    "timeout",        # request expired before the worker reached it
    "shutting_down",  # daemon draining; no new work admitted
    "unsupported_version",  # envelope version above what this side speaks
    "internal",       # unexpected server-side failure
    # A read's whole replica set is down (replicated shard pools only:
    # the primary crashed mid-batch and the one-hop failover failed
    # too).  Reads are idempotent, so this is always safe to retry —
    # RetryPolicy does by default.  Single-replica pools keep emitting
    # ``internal`` for shard crashes.
    "shard_unavailable",
)


class ProtocolError(ValueError):
    """A request that cannot be served, with its wire error code."""

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass
class Request:
    """One decoded request line."""

    op: str
    id: Any = None
    params: Dict[str, Any] = field(default_factory=dict)
    v: int = 1


def parse_request(line: bytes) -> Request:
    """Decode one raw request line.

    Raises:
        ProtocolError: ``bad_request`` for malformed JSON or shape,
            ``unknown_op`` for an op outside the registry,
            ``unsupported_version`` for an envelope version above
            :data:`PROTOCOL_VERSION`.
    """
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("bad_request", f"malformed request line: {exc}")
    if not isinstance(payload, dict):
        raise ProtocolError(
            "bad_request",
            f"request must be a JSON object, got {type(payload).__name__}",
        )
    version = payload.pop("v", 1)
    if isinstance(version, bool) or not isinstance(version, int):
        raise ProtocolError(
            "bad_request", f"param 'v' must be an integer, got {version!r}"
        )
    if version < 1:
        raise ProtocolError(
            "bad_request", f"param 'v' must be >= 1, got {version!r}"
        )
    if version > PROTOCOL_VERSION:
        raise ProtocolError(
            "unsupported_version",
            f"request envelope v{version} is newer than this server "
            f"(speaks <= v{PROTOCOL_VERSION})",
        )
    op = payload.pop("op", None)
    if op is None:
        raise ProtocolError("bad_request", "request is missing 'op'")
    from . import ops

    ops.get_spec(op)  # raises unknown_op for names outside the registry
    request_id = payload.pop("id", None)
    return Request(op=op, id=request_id, params=payload, v=version)


def _line(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def encode_reply(
    request_id: Any, result: dict, fingerprint: Optional[str] = None
) -> bytes:
    """One successful reply line."""
    payload: Dict[str, Any] = {
        "id": request_id,
        "v": PROTOCOL_VERSION,
        "ok": True,
        "result": result,
    }
    if fingerprint is not None:
        payload["fingerprint"] = fingerprint
    return _line(payload)


def encode_error(request_id: Any, code: str, message: str) -> bytes:
    """One error reply line."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    return _line(
        {
            "id": request_id,
            "v": PROTOCOL_VERSION,
            "ok": False,
            "error": {"code": code, "message": message},
        }
    )


# -- result serializers ------------------------------------------------------
#
# JSON round-trips Python floats exactly (repr-based), so a client can
# compare served numbers byte-for-byte against direct RoutingSession
# answers — the concurrency-correctness tests rely on this.


def route_to_dict(route) -> dict:
    """Serialize a :class:`~repro.core.riskroute.RouteResult`."""
    return {
        "source": route.source,
        "target": route.target,
        "path": list(route.path),
        "bit_miles": route.bit_miles,
        "bit_risk_miles": route.bit_risk_miles,
    }


def pair_to_dict(pair) -> dict:
    """Serialize a :class:`~repro.core.riskroute.PairRoutes`."""
    return {
        "shortest": route_to_dict(pair.shortest),
        "riskroute": route_to_dict(pair.riskroute),
        "risk_ratio": pair.risk_ratio,
        "distance_ratio": pair.distance_ratio,
    }


def ratios_to_dict(result) -> dict:
    """Serialize a :class:`~repro.core.ratios.RatioResult`."""
    return {
        "risk_reduction_ratio": result.risk_reduction_ratio,
        "distance_increase_ratio": result.distance_increase_ratio,
        "pair_count": result.pair_count,
    }


def recommendation_to_dict(rec) -> dict:
    """Serialize a :class:`~repro.core.provisioning.LinkRecommendation`."""
    return {
        "pop_a": rec.candidate.pop_a,
        "pop_b": rec.candidate.pop_b,
        "length_miles": rec.candidate.length_miles,
        "aggregate_bit_risk": rec.aggregate_bit_risk,
        "baseline_bit_risk": rec.baseline_bit_risk,
        "fraction_of_baseline": rec.fraction_of_baseline,
    }
