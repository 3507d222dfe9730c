"""Query execution: one batch at a time, against one RoutingSession.

The daemon's single worker hands the service whole batches (see
:mod:`repro.server.coalesce`), and the service runs them synchronously
on a one-thread executor — so exactly one thread ever touches the
engine, and a batch always executes under exactly one risk model.
That serialization is what makes the write guarantee atomic: a write
(``update_forecast`` / ``ingest``) only ever runs *between* batches, and
every reply in a batch is tagged with the risk fingerprint captured
when the batch started.

Dispatch is table-driven: each request's validation, sweep-demand
planning and result production come from its
:class:`~repro.server.ops.OpSpec` in the declarative registry — the
service contains no per-op ``op ==`` branching.  In a sharded daemon
the same service class runs inside every shard process, executing the
same specs against a shared-memory engine, which is what makes sharded
replies byte-identical to single-process ones.

Coalescing happens here too: before dispatching, the batch's sweep
demands — the shared ``(alpha, source)`` sweeps each request will
read — are collected, deduplicated and prefetched in one engine call.
Requests that demand the same sweep share one computation; the surplus
is reported back as ``coalesced`` and surfaces in server stats.

Writes are **transactional** and share one path
(:meth:`QueryService._write`).  In the paper every PoP's risk term is
``gamma_h * o_h + gamma_f * o_f`` (Eq. 1), so a write replaces one
per-PoP field: ``o_f`` from an ``update_forecast`` advisory
(:meth:`QueryService.apply_update`), or ``o_h`` recomputed through the
incremental KDE path after an ``ingest`` of disaster events
(:meth:`QueryService.apply_ingest`).  Only that step is per-op.  The
shared path validates before touching anything, applies the field
copy-on-write (a new :class:`~repro.risk.model.RiskModel`, swapped by
reference), and on *any* failure during the apply rolls the session
back to the prior model — the risk field and its fingerprint are
restored, never left half-swapped.  An optional idempotency ``token``
makes retries safe: a token is recorded only after a successful apply,
so a retried write applies at most once and the duplicate is answered
from the token ledger (``duplicate: true`` on the wire).  The returned
:class:`SwapOutcome` carries the full applied field so a sharded parent
can broadcast it to its shard processes behind a fingerprint barrier.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..graph.core import NodeNotFoundError
from ..graph.shortest_path import NoPathError
from . import ops
from .coalesce import PendingRequest
from .faults import FaultPlane, InjectedFault
from .protocol import (
    ProtocolError,
    Request,
    encode_error,
    encode_reply,
)

__all__ = ["QueryService", "SwapOutcome", "TOKEN_LEDGER_SIZE"]


#: Most recent idempotency tokens remembered per service (a retried
#: write older than this many successful writes is no longer recognized
#: as a duplicate).
TOKEN_LEDGER_SIZE = 256


@dataclass(frozen=True)
class SwapOutcome:
    """What one write barrier (``update_forecast`` / ``ingest``) did.

    Attributes:
        applied: a swap was executed this call (False for validation
            errors and token-ledger duplicates).
        changed: the risk field actually changed (sweeps invalidated).
        field: the full ``{pop_id: risk}`` field that was applied —
            ``o_f`` for a forecast swap, ``o_h`` for an ingest — what a
            sharded parent broadcasts to shards.
        fingerprint: the engine's risk fingerprint after the call.
    """

    applied: bool
    changed: bool
    field: Optional[Dict[str, float]] = None
    fingerprint: Optional[str] = None


def apply_field(session, name: str, values: Dict[str, float]) -> bool:
    """Swap one per-PoP risk field of Eq. 1 into ``session``.

    ``name`` is ``"forecast"`` (``o_f``) or ``"historical"`` (``o_h``).
    The parent's write path and every shard process apply writes
    through this one function.  Returns True when the risk field
    changed.
    """
    if name == "forecast":
        return session.update_forecast(values)
    return session.update_historical(values)


class QueryService:
    """Synchronous batch executor over one :class:`RoutingSession`."""

    def __init__(self, session, faults: Optional[FaultPlane] = None) -> None:
        self.session = session
        self._faults = faults
        # token -> the 'changed' outcome of the swap it guarded.
        self._applied_tokens: "OrderedDict[str, bool]" = OrderedDict()
        # Streaming-ingest state: the mutable historical model is built
        # lazily on the first ingest; the log of successfully applied
        # batches lets a rolled-back (discarded) model be rebuilt to
        # exactly the last good state.
        self._streaming = None
        self._ingest_log: List[tuple] = []

    def _fault(self, site: str):
        if self._faults is None:
            return None
        return self._faults.check(site)

    # -- coalescing plan ---------------------------------------------------

    @staticmethod
    def _validate(request: Request):
        """``(spec, params, None)`` for a valid query request, or
        ``(None, None, error)`` with the error its reply reports.

        Each request of a batch is validated once, here; planning and
        dispatch both read the same params dict.
        """
        try:
            spec = ops.get_spec(request.op)
            if spec.handler is None:
                raise ProtocolError(
                    "unknown_op", f"op {request.op!r} is not a query op"
                )
            return spec, ops.validate_params(spec, request.params), None
        except ProtocolError as error:
            return None, None, error

    @staticmethod
    def _sweep_demands(engine, spec, params) -> List[Tuple[int, float]]:
        """The (source index, alpha) sweeps one request will consult.

        Driven by each op's :attr:`~repro.server.ops.OpSpec.plan`; ops
        without a planner (``ratios``/``provision``) carry their own
        batched prefetch inside the engine.  Invalid requests and
        unknown nodes yield no demands — the dispatch step reports them.
        """
        if spec is None or spec.plan is None:
            return []
        try:
            return spec.plan(engine, params)
        except (ProtocolError, NodeNotFoundError):
            return []

    # -- batch execution (worker-thread entry points) ----------------------

    def execute_batch(self, batch: List[PendingRequest]) -> Dict[str, int]:
        """Serve one batch of query requests, filling each item's reply.

        Returns coalescing metrics: ``demands`` (sweeps requested),
        ``coalesced`` (demands shared within the batch), ``computed``
        (cold sweeps actually run by the shared prefetch).
        """
        rule = self._fault("executor_stall")
        if rule is not None:
            time.sleep(rule.delay)
        engine = self.session.engine
        fingerprint = engine.risk_fingerprint
        validated = [self._validate(item.request) for item in batch]
        demands: List[Tuple[int, float]] = []
        for spec, params, _ in validated:
            demands.extend(self._sweep_demands(engine, spec, params))
        unique = set(demands)
        computed = engine.prefetch(demands) if demands else 0
        for item, checked in zip(batch, validated):
            self._dispatch(item, checked, fingerprint)
        return {
            "demands": len(demands),
            "coalesced": len(demands) - len(unique),
            "computed": computed,
        }

    # -- the risk-field write path -----------------------------------------

    def apply_update(self, item: PendingRequest) -> SwapOutcome:
        """Apply one ``update_forecast``: the request's ``o_f`` field.

        PoPs absent from ``risk`` get ``default``; a PoP the model does
        not know is an ``unknown_node`` error.  The rest is the shared
        write path (:meth:`_write`).
        """

        def prepare(params):
            risk, default = params["risk"], params["default"]
            pop_ids = self.session.model.pop_ids()
            unknown = sorted(set(risk) - set(pop_ids))
            if unknown:
                raise NodeNotFoundError(unknown[0])
            values = {pop: float(risk.get(pop, default)) for pop in pop_ids}
            return lambda: (values, {})

        return self._write(item, "forecast", prepare)

    def apply_ingest(self, item: PendingRequest) -> SwapOutcome:
        """Apply one ``ingest``: disaster events in, the new ``o_h`` out.

        The batch is folded into the streaming model (duplicates
        dropped) and the per-PoP ``o_h`` field is recomputed through the
        incremental KDE path.
        The reply carries the :class:`~repro.risk.streaming.IngestDelta`
        summary.  The rest is the shared write path (:meth:`_write`),
        which also rolls a failed ingest's streaming model back.
        """

        def prepare(params):
            events = self._parse_events(params["events"])
            network = getattr(self.session, "network", None)
            if network is None:
                raise ProtocolError(
                    "bad_request",
                    "ingest requires a network-backed session "
                    "(o_h evaluation needs PoP coordinates)",
                )

            def compute():
                model = self.streaming_model()
                # Ingest validates the whole batch's classes before
                # mutating, so a raise here leaves the model intact.
                delta = model.ingest(events)
                self._ingest_log.append(tuple(events))
                return model.pop_risks(network), delta.as_dict()

            return compute

        return self._write(item, "historical", prepare)

    def _write(self, item: PendingRequest, name: str, prepare) -> SwapOutcome:
        """The one risk-field write path behind both write ops.

        ``prepare(params)`` is the op's own step: it validates the
        request and returns a thunk computing the new per-PoP ``name``
        field as ``(values, extra reply body)``.  Everything else
        happens here, once:

        * with an idempotency ``token`` already in the ledger, answer
          ``duplicate: true`` with the current fingerprint and touch
          nothing;
        * otherwise compute and apply the field copy-on-write (a new
          :class:`~repro.risk.model.RiskModel`, swapped by reference),
          then visit the ``apply_update`` fault site;
        * on any failure roll back: the session returns to its prior
          model and fingerprint, and an ingest's advanced streaming
          model and log entry are dropped (:meth:`streaming_model`
          replays the committed log);
        * on success commit the token and reply ``changed`` /
          ``duplicate: false``.

        Returns a :class:`SwapOutcome`; ``outcome.field`` is the full
        applied field, which the sharded daemon broadcasts to its shard
        processes behind a fingerprint barrier.
        """
        request = item.request
        session = self.session
        try:
            params = ops.validate_params(
                ops.get_spec(request.op), request.params
            )
            compute = prepare(params)
            token = params["token"]
            if token is not None and token in self._applied_tokens:
                fingerprint = session.engine.risk_fingerprint
                item.reply = encode_reply(
                    request.id,
                    {
                        "changed": self._applied_tokens[token],
                        "duplicate": True,
                    },
                    fingerprint=fingerprint,
                )
                item.ok = True
                return SwapOutcome(  # nothing swapped this time
                    applied=False, changed=False, fingerprint=fingerprint
                )
            prior_model, logged = session.model, len(self._ingest_log)
            try:
                values, body = compute()
                changed = apply_field(session, name, values)
                # Fires *after* the new field landed: the worst case
                # for the rollback below.
                if self._fault("apply_update") is not None:
                    raise InjectedFault("injected apply_update failure")
            except Exception:
                session.update_model(prior_model)
                if len(self._ingest_log) > logged:
                    del self._ingest_log[logged:]
                    self._streaming = None
                raise
            if token is not None:
                self._remember_token(token, changed)
            fingerprint = session.engine.risk_fingerprint
            item.reply = encode_reply(
                request.id,
                {**body, "changed": changed, "duplicate": False},
                fingerprint=fingerprint,
            )
            item.ok = True
            return SwapOutcome(
                applied=True, changed=changed, field=values,
                fingerprint=fingerprint,
            )
        except Exception as exc:  # noqa: BLE001 - mapped to wire errors
            item.reply = self._error_reply(request, exc)
            item.ok = False
            return SwapOutcome(applied=False, changed=False)

    def _remember_token(self, token: str, changed: bool) -> None:
        """Record a successfully applied token (bounded ledger)."""
        self._applied_tokens[token] = changed
        while len(self._applied_tokens) > TOKEN_LEDGER_SIZE:
            self._applied_tokens.popitem(last=False)

    def streaming_model(self):
        """The service's mutable streaming historical model.

        Built lazily on first use (the five-class corpus model), then
        fast-forwarded through every previously applied ingest batch —
        which is also how a model discarded by a failed apply comes
        back: the log holds only batches whose swap committed, and
        :meth:`~repro.risk.streaming.StreamingHistoricalModel.ingest`
        is deterministic, so the replay reproduces the exact
        fingerprint the engine is serving.
        """
        if self._streaming is None:
            from ..risk.streaming import default_streaming_model

            model = default_streaming_model()
            for events in self._ingest_log:
                model.ingest(events)
            self._streaming = model
        return self._streaming

    @staticmethod
    def _parse_events(records):
        """Wire records -> typed :class:`DisasterEvent` list.

        Semantic violations (unknown class names, out-of-range
        coordinates, implausible years) surface as ``bad_request``.
        """
        from ..disasters.events import DisasterEvent
        from ..geo.coords import GeoPoint

        events = []
        for record in records:
            try:
                events.append(
                    DisasterEvent(
                        event_type=record["event_type"],
                        location=GeoPoint(
                            lat=float(record["lat"]),
                            lon=float(record["lon"]),
                        ),
                        year=int(record["year"]),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ProtocolError(
                    "bad_request", f"bad event record {record!r}: {exc}"
                )
        return events

    # -- per-request dispatch ----------------------------------------------

    def _dispatch(
        self, item: PendingRequest, checked, fingerprint: str
    ) -> None:
        """Answer one request from its :meth:`_validate` outcome."""
        request = item.request
        spec, params, error = checked
        try:
            if error is not None:
                raise error
            result = spec.handler(self, params)
            item.reply = encode_reply(
                request.id,
                result,
                fingerprint=fingerprint if spec.fingerprint_reply else None,
            )
            item.ok = True
        except Exception as exc:  # noqa: BLE001 - mapped to wire errors
            item.reply = self._error_reply(request, exc)
            item.ok = False

    @staticmethod
    def _error_reply(request: Request, exc: Exception) -> bytes:
        if isinstance(exc, ProtocolError):
            return encode_error(request.id, exc.code, exc.message)
        if isinstance(exc, NodeNotFoundError):
            name = exc.args[0] if exc.args else "?"
            return encode_error(
                request.id, "unknown_node", f"unknown PoP {name!r}"
            )
        if isinstance(exc, NoPathError):
            return encode_error(request.id, "no_path", str(exc))
        if isinstance(exc, KeyError):
            # str(KeyError(m)) is repr(m): send the message unquoted.
            message = str(exc.args[0]) if exc.args else str(exc)
            return encode_error(request.id, "bad_request", message)
        if isinstance(exc, (TypeError, ValueError)):
            return encode_error(request.id, "bad_request", str(exc))
        return encode_error(
            request.id, "internal", f"{type(exc).__name__}: {exc}"
        )
