"""The async RiskRoute query service.

A stdlib-only asyncio daemon that fronts one
:class:`~repro.session.RoutingSession` and serves a newline-delimited
JSON protocol over TCP — the interactive-operator shape the paper's
storm scenario needs (concurrent queries during a live advisory cycle),
and the layer future scaling work (sharding, replica fan-out) plugs
into.

Service semantics, not a toy loop:

* request **batching** — concurrent queries share one hop to the
  service executor, and each is answered in order exactly as a direct
  session call answers it, sharing sweeps only through the engine's
  caches;
* **admission control / backpressure** — a bounded pending queue with
  per-request deadlines and typed ``overloaded`` / ``timeout`` replies;
* **hot risk-field writes** — ``update_forecast`` swaps ``o_f`` and
  ``ingest`` folds disaster events into ``o_h``, both atomically
  between batches through one write path; replies are tagged with the
  risk fingerprint they were computed under, so no answer ever mixes
  pre- and post-write risk;
* **graceful shutdown** draining admitted work;
* a ``stats`` op exposing :class:`~repro.server.stats.ServerStats`
  plus engine cache counters;
* **worker supervision** — a crashed worker is restarted, its in-flight
  batch failed with typed ``internal`` errors, and ``health`` reports
  ``degraded`` (with the reason) until a batch completes cleanly;
* **transactional writes** — a failed ``update_forecast`` or
  ``ingest`` rolls back to the prior risk field and fingerprint, and
  idempotency tokens make retried writes apply at most once;
* a seedable **fault-injection plane**
  (:class:`~repro.server.faults.FaultPlane`) driving the chaos tests —
  connection resets, torn/delayed writes, worker crashes, executor
  stalls, forced write failures, shard deaths — off in production.

The blocking :class:`~repro.server.client.RiskRouteClient` self-heals:
transport failures mark it closed for reconnect on the next call, and
an optional :class:`~repro.server.client.RetryPolicy` (exponential
backoff + jitter + budget) retries overloads, drains and drops for
reads and token-guarded writes.

Since the v2 envelope the whole API surface is table-driven: every op
is declared once in the registry (:mod:`repro.server.ops`) — wire
params, read/write/control classification, shard routing, handler —
and the protocol parser, the queue, the service dispatch, the client's
generated per-op methods and the CLI subcommands all derive from it.
A daemon started with ``shards=N``
(:class:`~repro.server.shards.ShardPool`) fans query batches across N
worker processes over a shared-memory topology export, with writes
applied in the parent and broadcast behind a fingerprint barrier.
With ``replicas=R >= 2`` each read key is rendezvous-replicated over R
shards with load-balanced (power-of-two-choices) routing, and a shard
that dies or hangs mid-batch has its reads re-sent once to a live
replica — see :mod:`repro.server.shards`.

Run one from the CLI (``riskroute serve Level3 --shards 4``),
in-process (:class:`ServerThread`), or under your own loop
(:class:`RiskRouteServer`); talk to it with
:class:`~repro.server.client.RiskRouteClient` or ``riskroute query``.
"""

from .client import RETRY_SAFE_OPS, RetryPolicy, RiskRouteClient, ServerError
from .coalesce import CoalescingQueue, PendingRequest
from .daemon import RiskRouteServer, ServerConfig, ServerThread
from .faults import FAULT_SITES, FaultPlane, FaultRule, InjectedFault
from .ops import REGISTRY, OpSpec, Param
from .protocol import (
    ERROR_CODES,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    encode_error,
    encode_reply,
    parse_request,
)
from .service import QueryService, SwapOutcome
from .shards import ShardPool, replicas_of
from .stats import ServerStats

__all__ = [
    "RiskRouteServer",
    "ServerConfig",
    "ServerThread",
    "RiskRouteClient",
    "RetryPolicy",
    "RETRY_SAFE_OPS",
    "ServerError",
    "FaultPlane",
    "FaultRule",
    "InjectedFault",
    "FAULT_SITES",
    "QueryService",
    "SwapOutcome",
    "ShardPool",
    "replicas_of",
    "OpSpec",
    "Param",
    "REGISTRY",
    "ServerStats",
    "CoalescingQueue",
    "PendingRequest",
    "ProtocolError",
    "Request",
    "parse_request",
    "encode_reply",
    "encode_error",
    "PROTOCOL_VERSION",
    "ERROR_CODES",
    "MAX_LINE_BYTES",
]
