"""Blocking stdlib client for the RiskRoute daemon, with self-healing.

One socket, one request in flight at a time — the shape tests, examples
and operator scripts want.  Error replies raise :class:`ServerError`
carrying the wire error code; every successful routed reply's risk
fingerprint is kept on :attr:`RiskRouteClient.last_fingerprint`, so a
caller can tell which side of a forecast swap an answer came from::

    with RiskRouteClient(host, port) as client:
        pair = client.pair("Level3:Houston, TX", "Level3:Boston, MA")
        client.update_forecast({"Level3:Houston, TX": 0.4})
        after = client.pair("Level3:Houston, TX", "Level3:Boston, MA")

The client heals itself: any transport failure (dropped connection,
truncated or garbage reply line, timeout) tears the socket down and
marks it for reconnect, so the next call starts on a fresh connection
instead of reading a desynchronized stream.  With a
:class:`RetryPolicy` the healing is automatic::

    client = RiskRouteClient(host, port, retry=RetryPolicy())
    client.route(src, dst)        # survives overloads, drops, restarts

Retries respect exponential backoff with jitter and a total time
budget, and only ever re-send what is safe: the registry's retry-safe
ops (reads and controls — see :data:`RETRY_SAFE_OPS`) always; the
registry's ``write`` ops (``update_forecast`` / ``ingest``) only when
guarded by an idempotency token (one is generated automatically under
a retry policy), which the server uses to apply a retried write at
most once.

The per-op methods (``route``/``pair``/``ratios``/``stats``/...) are
**generated from the op registry** (:mod:`repro.server.ops`): each
registered op becomes a typed wrapper over :meth:`RiskRouteClient.call`
with a real signature (required params positional-or-keyword, optional
params defaulted) and a docstring derived from the spec.  Hand-rolled
methods survive only where behavior goes beyond the wire contract —
``update_forecast`` / ``ingest`` (auto-tokening).

Requests carry the protocol version (``v``); a reply stamped with a
*newer* envelope version than this client speaks raises a typed
``unsupported_version`` :class:`ServerError` instead of failing on
missing fields.
"""

from __future__ import annotations

import inspect
import json
import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from . import ops
from .protocol import PROTOCOL_VERSION

__all__ = ["RiskRouteClient", "RetryPolicy", "ServerError"]

#: Ops that are safe to blindly re-send after a connection drop —
#: derived from the registry (``read`` and ``control`` ops; writes are
#: excluded).  ``write`` ops join them only when token-guarded.
RETRY_SAFE_OPS = frozenset(ops.retry_safe_op_names())

#: Server error codes worth retrying.  ``overloaded`` /
#: ``shutting_down`` are rejections issued *before* execution, so they
#: are safe for every op; ``shard_unavailable`` is only ever attached to
#: replicated reads (a key's whole replica set was down for a moment —
#: idempotent by classification), so riding through the respawn window
#: with a retry is safe too.
RETRY_CODES = frozenset({"overloaded", "shutting_down", "shard_unavailable"})

#: Backoff before the first retry, in seconds; each further retry
#: multiplies it by :data:`BACKOFF_MULTIPLIER`, up to
#: :data:`MAX_BACKOFF`.
BASE_BACKOFF = 0.05
BACKOFF_MULTIPLIER = 2.0
MAX_BACKOFF = 2.0

#: Fraction of each backoff randomized away: a sleep lands somewhere in
#: [0.5, 1.0] x the delay.
BACKOFF_JITTER = 0.5


class ServerError(RuntimeError):
    """An error reply from the daemon (wire code + message)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


@dataclass(frozen=True)
class RetryPolicy:
    """How a client retries transient failures: the error codes in
    :data:`RETRY_CODES` and, for retry-safe requests, transport
    failures, each after a jittered exponential backoff.

    Args:
        attempts: total tries per call (1 = no retry).
        budget: total seconds a call may spend across all retries;
            exhausting it re-raises the last failure immediately.
    """

    attempts: int = 4
    budget: float = 30.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.budget <= 0:
            raise ValueError("budget must be > 0")

    @staticmethod
    def delay(retry_index: int, rng: random.Random) -> float:
        """The jittered backoff before retry ``retry_index`` (0-based)."""
        raw = min(
            MAX_BACKOFF, BASE_BACKOFF * BACKOFF_MULTIPLIER ** retry_index
        )
        return raw * (1.0 - BACKOFF_JITTER * rng.random())


class RiskRouteClient:
    """Blocking NDJSON client; safe from exactly one thread."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 4174,
        timeout: Optional[float] = 30.0,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._host = host
        self._port = port
        self._timeout = timeout
        self._retry = retry
        self._rng = rng if rng is not None else random.Random()
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._next_id = 0
        #: Risk fingerprint tag of the last successful routed reply.
        self.last_fingerprint: Optional[str] = None
        #: Connections re-established after the first (observability).
        self.reconnects = 0
        # Eager connect: a refused connection fails here, not on the
        # first call.
        self._connect()

    # -- connection plumbing -----------------------------------------------

    @property
    def closed(self) -> bool:
        """True when the next call must (re)connect first."""
        return self._sock is None

    def _connect(self) -> None:
        sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        self._sock = sock
        self._file = sock.makefile("rwb")

    def _ensure_connected(self) -> None:
        if self._sock is None:
            self._connect()
            self.reconnects += 1

    def _teardown(self) -> None:
        """Drop the socket; the next call reconnects from scratch."""
        file, sock = self._file, self._sock
        self._file = None
        self._sock = None
        for resource in (file, sock):
            if resource is None:
                continue
            try:
                resource.close()
            except OSError:
                pass

    def close(self) -> None:
        """Close the connection (idempotent)."""
        self._teardown()

    def __enter__(self) -> "RiskRouteClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request plumbing --------------------------------------------------

    def call(self, op: str, **params: Any) -> dict:
        """Send one request and block for its reply.

        ``None``-valued params are omitted from the wire.  Transport
        failures mark the client closed (the next call reconnects);
        under a :class:`RetryPolicy` retry-safe failures are retried
        with backoff before surfacing.

        Raises:
            ServerError: on an error reply.
            ConnectionError: when the daemon drops the connection or
                returns an unframed/garbage reply line.
            OSError: other socket failures (including timeouts).
        """
        wire_params = {k: v for k, v in params.items() if v is not None}
        policy = self._retry
        spec = ops.REGISTRY.get(op)
        retry_safe = op in RETRY_SAFE_OPS or (
            spec is not None
            and spec.kind == "write"
            and "token" in wire_params
        )
        deadline = (
            time.monotonic() + policy.budget if policy is not None else None
        )
        retry_index = 0
        while True:
            try:
                self._ensure_connected()
                return self._roundtrip(op, wire_params)
            except ServerError as exc:
                if policy is None or exc.code not in RETRY_CODES:
                    raise
                self._backoff(policy, retry_index, deadline, exc)
            except OSError as exc:
                # ConnectionError, socket.timeout, refused reconnects:
                # the stream can no longer be trusted.
                self._teardown()
                if policy is None or not retry_safe:
                    raise
                self._backoff(policy, retry_index, deadline, exc)
            retry_index += 1

    def _roundtrip(self, op: str, wire_params: Dict[str, Any]) -> dict:
        self._next_id += 1
        payload: Dict[str, Any] = {
            "id": self._next_id, "op": op, "v": PROTOCOL_VERSION,
        }
        payload.update(wire_params)
        self._file.write(
            json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"
        )
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        try:
            reply = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            # A torn or garbage reply means the stream is desynchronized
            # — it must not be reused for another request.
            self._teardown()
            raise ConnectionError(
                f"malformed reply from server ({exc}); connection dropped"
            ) from exc
        version = reply.get("v", 1)
        if isinstance(version, int) and version > PROTOCOL_VERSION:
            # A newer server may shape replies in ways this client
            # cannot parse: refuse with a typed error rather than
            # KeyError on whatever fields moved.
            raise ServerError(
                "unsupported_version",
                f"server replied with envelope v{version}; this client "
                f"speaks <= v{PROTOCOL_VERSION}",
            )
        if not reply.get("ok"):
            error = reply.get("error") or {}
            raise ServerError(
                error.get("code", "internal"), error.get("message", "")
            )
        if "result" not in reply:
            self._teardown()
            raise ConnectionError(
                "ok reply without a result field; connection dropped"
            )
        self.last_fingerprint = reply.get("fingerprint")
        return reply["result"]

    def _backoff(
        self,
        policy: RetryPolicy,
        retry_index: int,
        deadline: float,
        exc: Exception,
    ) -> None:
        """Sleep before the next attempt, or re-raise ``exc`` when the
        attempt count or time budget is spent."""
        if retry_index >= policy.attempts - 1:
            raise exc
        delay = policy.delay(retry_index, self._rng)
        if time.monotonic() + delay > deadline:
            raise exc
        time.sleep(delay)

    # -- hand-rolled ops (behavior beyond the wire contract) ---------------
    #
    # Every other per-op method is generated from the registry below.

    def update_forecast(
        self,
        risk: Dict[str, float],
        default: float = 0.0,
        token: Optional[str] = None,
    ) -> dict:
        """Hot-swap the forecast risk field (``o_f``) atomically.

        ``risk`` may cover a subset of PoPs; the rest get ``default``.
        ``token`` is an idempotency key: the server applies a given
        token at most once, so a retried swap cannot double-apply.
        Under a retry policy a token is generated automatically when
        none is given (making the write safe to retry); without one, an
        untokened update is never retried.
        """
        if token is None and self._retry is not None:
            token = f"auto-{self._rng.getrandbits(64):016x}"
        return self.call(
            "update_forecast", risk=dict(risk), default=default, token=token
        )

    def ingest(self, events, token: Optional[str] = None) -> dict:
        """Stream disaster events into the historical field (``o_h``).

        ``events`` is an iterable of ``{event_type, lat, lon, year}``
        records; the server folds them into its incremental KDE and
        re-evaluates only the touched risk cells.  ``token`` is the
        same idempotency key as :meth:`update_forecast` — applied at
        most once, auto-generated under a retry policy so a retried
        ingest cannot double-append.
        """
        if token is None and self._retry is not None:
            token = f"auto-{self._rng.getrandbits(64):016x}"
        return self.call("ingest", events=list(events), token=token)


# -- registry-generated op wrappers ------------------------------------------


def _wrapper_signature(spec: "ops.OpSpec") -> inspect.Signature:
    kind = inspect.Parameter.POSITIONAL_OR_KEYWORD
    parameters = [inspect.Parameter("self", kind)]
    for param in spec.params:
        default = inspect.Parameter.empty if param.required else param.default
        parameters.append(inspect.Parameter(param.name, kind, default=default))
    return inspect.Signature(parameters)


def _op_wrapper(spec: "ops.OpSpec"):
    """One typed client method, generated from an op spec.

    The wrapper binds real positional/keyword arguments against the
    spec-derived signature (so ``client.route("a", "b")`` works and a
    wrong arity raises :class:`TypeError` at the call site, not on the
    wire) and forwards through :meth:`RiskRouteClient.call` — None
    values are dropped there, matching the specs' optional params.
    """
    signature = _wrapper_signature(spec)

    def wrapper(*args: Any, **kwargs: Any) -> dict:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        arguments = dict(bound.arguments)
        self = arguments.pop("self")
        return self.call(spec.name, **arguments)

    lines = [spec.doc, ""]
    for param in spec.params:
        requirement = (
            "required" if param.required else f"default {param.default!r}"
        )
        lines.append(f"    {param.name}: {param.doc} ({requirement})")
    lines += [
        "",
        f"Generated from the op registry (op {spec.name!r}, "
        f"kind {spec.kind!r}).",
    ]
    wrapper.__name__ = spec.name
    wrapper.__qualname__ = f"RiskRouteClient.{spec.name}"
    wrapper.__doc__ = "\n".join(lines)
    wrapper.__signature__ = signature  # type: ignore[attr-defined]
    return wrapper


for _spec in ops.registered_ops():
    if _spec.name not in RiskRouteClient.__dict__:
        setattr(RiskRouteClient, _spec.name, _op_wrapper(_spec))
del _spec
