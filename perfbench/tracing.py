"""In-memory spans around the public entry points of each serving layer.

:func:`install` wraps the layer entry points it lists (plus a few
counter-only hooks) so that every call records ``(name, start, end,
self_seconds, detail)``.  Self time is the span's duration minus the
time its child spans cover; children are tracked per thread, so the
service executor thread, the event-loop thread and shard processes each
keep their own call stacks.

Nothing here touches ``src/``: the wrappers are installed from the
benchmark's launcher at start-up and the spans are written to one JSON
file per process by :func:`dump`.  Timestamps are
``time.perf_counter()``, which is ``CLOCK_MONOTONIC`` on Linux and so
comparable across the daemon, its shards and the load generator.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: This process's spans: one launcher or shard process records into it.
_spans: List[Tuple[str, float, float, float, Any]] = []
_local = threading.local()


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _engine_counters(engine) -> Tuple[int, ...]:
    stats = engine.stats()
    sweeps, results, targeted = (
        stats["sweeps"], stats["results"], stats["targeted"]
    )
    return (
        sweeps["hits"], sweeps["misses"], sweeps["invalidations"],
        results["hits"], results["misses"],
        targeted["queries"], targeted["settled"], targeted["node_count"],
    )


def _span(name: str, fn: Callable, extra: Optional[Callable] = None,
          engine: bool = False) -> Callable:
    """Wrap a synchronous callable in a span.

    ``extra(args, result)`` returns a JSON-able detail stored with the
    span.  ``engine=True`` also stores the engine cache-counter delta of
    the call, for the outermost engine span of a stack only (nested
    engine calls would count the same cache traffic twice).  A call
    returning exactly ``False`` (a model swap that changed nothing) is
    recorded as ``<name>.noop``.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        in_engine = bool(stack) and stack[-1][1]
        frame = [0.0, engine or in_engine]
        outermost_engine = engine and not in_engine
        before = _engine_counters(args[0]) if outermost_engine else None
        stack.append(frame)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1][0] += end - start
            detail = extra(args, result) if extra is not None else None
            if before is not None:
                after = _engine_counters(args[0])
                detail = [a - b for a, b in zip(after, before)]
                detail[-1] = after[-1]  # node_count is a size, not a delta
            _spans.append((
                f"{name}.noop" if result is False else name,
                start, end, end - start - frame[0], detail,
            ))

    return wrapper


def _next_batch_hook(fn: Callable) -> Callable:
    """Counter-only hook on the async ``CoalescingQueue.next_batch``:
    records the batch size and each item's wait since admission."""

    @functools.wraps(fn)
    async def wrapper(self, *args, **kwargs):
        import asyncio

        batch = await fn(self, *args, **kwargs)
        if batch:
            now = asyncio.get_running_loop().time()
            at = time.perf_counter()
            waits = [now - item.arrived for item in batch]
            _spans.append(("server.coalesce.next_batch", at, at, 0.0, waits))
        return batch

    return wrapper


def _provisioning_hook(fn: Callable) -> Callable:
    """Counter-only hook: the analyzer's sweep counters after a call."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        result = fn(self, *args, **kwargs)
        at = time.perf_counter()
        stats = self.stats
        _spans.append((
            "core.provisioning.stats", at, at, 0.0,
            [stats.sweeps_run, stats.sweeps_avoided],
        ))
        return result

    return wrapper


def _dirty_mask_hook(fn: Callable) -> Callable:
    """Counter-only hook: rows a KDE delta dirties out of rows tracked."""

    @functools.wraps(fn)
    def wrapper(self, latlon_deg):
        mask = fn(self, latlon_deg)
        at = time.perf_counter()
        _spans.append((
            "stats.streaming.dirty_mask", at, at, 0.0,
            [int(mask.sum()), int(mask.shape[0])],
        ))
        return mask

    return wrapper


def _batch_metrics(args, result):
    if not isinstance(result, dict):
        return None
    return [result.get("demands", 0), result.get("coalesced", 0),
            result.get("computed", 0)]


def _reply_bytes(args, result):
    return len(result) if isinstance(result, bytes) else 0


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind a module-level function in its module and in every loaded
    ``repro`` module that imported it by name."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install() -> None:
    """Wrap every traced entry point; call once per process."""
    from repro.core.provisioning import ProvisioningAnalyzer
    from repro.engine import shm
    from repro.engine.engine import RoutingEngine
    from repro.risk.historical import HistoricalRiskModel
    from repro.risk.streaming import StreamingHistoricalModel
    from repro.server import coalesce, ops, protocol, service, shards
    from repro.session import RoutingSession
    from repro.stats.streaming import KdeDelta

    for module, attr, name, extra in (
        (protocol, "parse_request", "server.protocol.parse_request", None),
        (protocol, "encode_reply", "server.protocol.encode_reply",
         _reply_bytes),
        (ops, "validate_params", "server.ops.validate_params", None),
    ):
        original = getattr(module, attr)
        _replace_everywhere(original, _span(name, original, extra))

    methods = (
        (service.QueryService, "execute_batch",
         "server.service.execute_batch", _batch_metrics, False),
        (service.QueryService, "apply_ingest",
         "server.service.apply_ingest", None, False),
        (RoutingEngine, "prefetch", "engine.prefetch", None, True),
        (RoutingEngine, "route_pair", "engine.route_pair", None, True),
        (RoutingEngine, "ratios", "engine.ratios", None, True),
        (RoutingEngine, "update_model", "engine.update_model", None, True),
        (RoutingSession, "provision", "core.provisioning.provision",
         None, False),
        (HistoricalRiskModel, "pop_risks", "risk.kde.pop_risks", None, False),
        (StreamingHistoricalModel, "ingest", "risk.streaming.ingest",
         None, False),
        (shards.ShardPool, "execute_batch", "server.shards.execute_batch",
         None, False),
        (shards.ShardPool, "broadcast_swap", "server.shards.broadcast",
         None, False),
        (shards.ShardPool, "broadcast_ingest", "server.shards.broadcast",
         None, False),
    )
    for cls, attr, name, extra, engine in methods:
        setattr(cls, attr, _span(name, getattr(cls, attr), extra, engine))

    export = shm.SharedEngineState.export.__func__
    shm.SharedEngineState.export = classmethod(
        _span("engine.shm.export", export)
    )
    coalesce.CoalescingQueue.next_batch = _next_batch_hook(
        coalesce.CoalescingQueue.next_batch
    )
    for attr in ("rank_candidates", "greedy_links"):
        setattr(ProvisioningAnalyzer, attr,
                _provisioning_hook(getattr(ProvisioningAnalyzer, attr)))
    KdeDelta.dirty_mask = _dirty_mask_hook(KdeDelta.dirty_mask)


def dump(spans_dir: str) -> None:
    """Write this process's spans to ``spans_dir/spans-<pid>.json``."""
    path = os.path.join(spans_dir, f"spans-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_spans, handle)


def load(spans_dir: str) -> List[list]:
    """Every span written to ``spans_dir`` by the daemon and its shards."""
    spans: List[list] = []
    for entry in sorted(os.listdir(spans_dir)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(spans_dir, entry), encoding="utf-8") as f:
                spans.extend(json.load(f))
    return spans


def aggregate(spans: List[list], window: Tuple[float, float]) -> Dict[str, Dict]:
    """Per span name: call count, total self seconds, and summed or
    concatenated details, over spans that start inside ``window``
    (``(-inf, inf)`` for the process lifetime)."""
    lo, hi = window
    out: Dict[str, Dict] = {}
    for name, start, end, self_s, detail in spans:
        if not lo <= start <= hi:
            continue
        entry = out.setdefault(name, {"count": 0, "self_s": 0.0, "detail": None})
        entry["count"] += 1
        entry["self_s"] += self_s
        if detail is None:
            continue
        if isinstance(detail, (int, float)):
            detail = [detail]
        if name == "server.coalesce.next_batch":
            entry["detail"] = (entry["detail"] or []) + list(detail)
            continue
        summed = entry["detail"] or [0] * len(detail)
        entry["detail"] = [a + b for a, b in zip(summed, detail)]
        if name.startswith("engine.") and len(detail) == 8:
            entry["detail"][-1] = detail[-1]  # node_count: a size
    return out
