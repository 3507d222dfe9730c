"""The asyncio daemon: connections, the worker loop, lifecycle.

Architecture (all stdlib)::

    clients --TCP/NDJSON--> handlers --submit--> CoalescingQueue
                                                      |
                                          supervisor > worker task
                                                      |
                                    one-thread executor -> QueryService
                                                      |
    clients <-------- replies (written by the worker/handlers)

* **Handlers** frame lines, parse requests, answer ``health`` inline
  (from the PoP count and risk fingerprint the daemon keeps, never
  from the engine), and enforce admission control: a full queue is an
  immediate ``overloaded`` reply, a draining daemon answers
  ``shutting_down``, and each admitted request carries a deadline.
* **The worker** is the only consumer: it pulls contiguous batches,
  expires requests past their deadline (``timeout``), runs query
  batches on the one-thread executor (so engine state is touched by
  exactly one thread), and applies write barriers between batches —
  no reply can mix pre- and post-write risk.  Both write ops
  (``update_forecast`` swaps ``o_f``, ``ingest`` recomputes ``o_h``)
  take one path: the service's transactional write, the shard
  broadcast behind a fingerprint barrier, then the reply.  Applied
  writes that move the fingerprint feed a bounded changelog served by
  the ``subscribe`` poll op.
* **The supervisor** watches the worker: if it crashes (a service bug,
  or an injected ``worker_exception`` fault), every request of the
  batch in flight is failed with a typed ``internal`` error — never a
  hung socket — the crash is counted in :class:`ServerStats`, ``health``
  flips to ``degraded`` (with the reason), and a fresh worker is
  started.  The next cleanly completed batch flips health back to
  ``ok``.
* **Shutdown** (:meth:`RiskRouteServer.stop` with ``drain=True``, the
  default) closes the listener, stops admissions, lets the worker drain
  every queued request, then closes remaining connections.

Chaos testing: :class:`ServerConfig.faults` accepts a
:class:`~repro.server.faults.FaultPlane` whose scheduled faults fire at
the instrumented sites (connection resets, torn/delayed writes, worker
crashes, executor stalls, forced write failures).  Production configs
leave it ``None``.

:class:`ServerThread` runs a daemon on a background thread with its own
event loop — the harness used by tests, benchmarks and examples.
"""

from __future__ import annotations

import asyncio
import math
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Set, Tuple

from . import ops
from .coalesce import CoalescingQueue, PendingRequest
from .faults import FaultPlane, FaultRule, InjectedFault
from .protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    encode_error,
    encode_reply,
    parse_request,
)
from .service import QueryService
from .shards import ShardPool
from .stats import ServerStats

__all__ = [
    "ServerConfig",
    "RiskRouteServer",
    "ServerThread",
    "CHANGELOG_SIZE",
]

#: Fingerprint-change entries the daemon remembers for ``subscribe``
#: polls; a subscriber further behind than this sees ``truncated`` and
#: should resync from the current fingerprint.
CHANGELOG_SIZE = 256

#: Each write op's :class:`QueryService` entry point and
#: :class:`ShardPool` broadcast.  The two share one write path; the
#: names only tell the two risk fields apart (``o_f`` and ``o_h``).
_WRITES = {
    "update_forecast": ("apply_update", "broadcast_swap"),
    "ingest": ("apply_ingest", "broadcast_ingest"),
}


@dataclass(frozen=True)
class ServerConfig:
    """Daemon tuning.

    Args:
        host, port: bind address; port 0 picks an ephemeral port
            (read it back from :meth:`RiskRouteServer.start`).
        max_pending: admission-control bound on queued requests.
        batch_linger: seconds a just-started batch waits for concurrent
            requests to join it (0 = serve immediately; a few
            milliseconds lets more requests share one executor hop
            under load).
        request_timeout: per-request deadline in seconds; expired
            requests get a ``timeout`` reply (0 = no deadline).
        faults: optional :class:`FaultPlane` for chaos tests; ``None``
            (production) disables every injection site.
        shards: query-serving shard processes.  0 (the default) serves
            in-process; N >= 1 fans query batches across N
            :mod:`~repro.server.shards` workers over a shared-memory
            topology export, with writes applied in the parent and
            broadcast behind a fingerprint barrier; a shard is declared
            hung after :data:`~repro.server.shards.SHARD_TIMEOUT`.
        replicas: shards serving each read key (clamped to ``shards``),
            ranked by rendezvous hashing.  1 (the default) gives every
            pair/params key one owner; R >= 2 replicates it over R
            shards with load-balanced routing and transparent one-hop
            failover for reads.

    A request line longer than :data:`~repro.server.protocol.MAX_LINE_BYTES`
    is answered ``too_large`` and its connection closes.  A field with a
    ``help`` entry in its metadata is also a ``riskroute serve`` flag,
    which takes its default from here.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_pending: int = field(default=256, metadata={
        "help": "admission-control bound on queued requests"})
    batch_linger: float = field(default=0.0, metadata={
        "help": "seconds a batch waits for concurrent requests to join "
                "it"})
    request_timeout: float = field(default=30.0, metadata={
        "help": "per-request deadline in seconds, 0 disables"})
    faults: Optional[FaultPlane] = None
    shards: int = field(default=0, metadata={
        "help": "fan query batches across this many shard processes over "
                "a shared-memory topology export (0 = in-process)"})
    replicas: int = field(default=1, metadata={
        "help": "shards serving each read key (1 = single-owner "
                "affinity; >= 2 adds load-balanced routing and "
                "transparent failover; clamped to --shards)"})

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in 0..65535")
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        for name in ("batch_linger", "request_timeout"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0")
        if self.shards < 0:
            raise ValueError("shards must be >= 0")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")


class RiskRouteServer:
    """One daemon fronting one :class:`~repro.session.RoutingSession`.

    Construct and run inside a running event loop (or use
    :class:`ServerThread`)::

        server = RiskRouteServer(session)
        host, port = await server.start()
        ...
        await server.stop()        # graceful: drains queued work
    """

    def __init__(self, session, config: Optional[ServerConfig] = None) -> None:
        self.session = session
        self.config = config or ServerConfig()
        self.stats = ServerStats()
        self.queue = CoalescingQueue(self.config.max_pending)
        self._faults = self.config.faults
        self.service = QueryService(session, faults=self._faults)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="riskroute-service"
        )
        self._shards: Optional[ShardPool] = None
        self._shard_crashes_seen = 0
        self._shard_restarts_seen = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._supervisor_task: Optional[asyncio.Task] = None
        self._worker_task: Optional[asyncio.Task] = None
        self._inflight: Optional[List[PendingRequest]] = None
        self._degraded_reason: Optional[str] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._started_at = 0.0
        self.address: Optional[Tuple[str, int]] = None
        # Monotonic risk-change feed for ``subscribe``: every applied
        # write that moved the fingerprint appends one entry.
        self._change_version = 0
        self._changelog: Deque[dict] = deque(maxlen=CHANGELOG_SIZE)
        # What health, stats and subscribe report about the engine, so
        # the loop thread never touches it: read once on the executor
        # in start(), then moved by every write's SwapOutcome.
        self._pops: Optional[int] = None
        self._risk_fingerprint: Optional[str] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind, start serving, and return the actual (host, port)."""
        loop = asyncio.get_running_loop()
        self._started_at = loop.time()
        engine = await loop.run_in_executor(
            self._executor, lambda: self.session.engine
        )
        self._pops = engine.node_count
        self._risk_fingerprint = engine.risk_fingerprint
        if self.config.shards > 0:
            pool = ShardPool(
                self.session,
                self.config.shards,
                replicas=self.config.replicas,
                faults=self._faults,
                engine_config=getattr(self.session, "_config", None),
            )
            # Export + spawn on the service executor: the engine is
            # only ever touched from that one thread.
            await loop.run_in_executor(self._executor, pool.start)
            self._shards = pool
        self._server = await asyncio.start_server(
            self._handle,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self._supervisor_task = loop.create_task(self._supervise())
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def stop(self, drain: bool = True) -> None:
        """Stop the daemon.

        ``drain=True`` (the default) serves every already-admitted
        request before exiting; ``drain=False`` abandons queued work.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.queue.close()
        if self._supervisor_task is not None:
            if drain:
                await self._supervisor_task
            else:
                self._supervisor_task.cancel()
                try:
                    await self._supervisor_task
                except asyncio.CancelledError:
                    pass
            self._supervisor_task = None
            self._worker_task = None
        for writer in list(self._writers):
            self._close_writer(writer)
        if self._shards is not None:
            pool, self._shards = self._shards, None
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(self._executor, pool.stop)
        self._executor.shutdown(wait=True)

    # -- fault plumbing ----------------------------------------------------

    def _fault(self, site: str) -> Optional[FaultRule]:
        """The rule to fire at ``site`` this visit, or None (hot path
        pays one attribute check when no plane is configured)."""
        if self._faults is None:
            return None
        return self._faults.check(site)

    # -- connection handling -----------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        self._writers.add(writer)
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line exceeded the stream limit: reply, then close
                    # (the remainder of the line cannot be re-framed).
                    self.stats.malformed += 1
                    self.stats.errors += 1
                    self._write(
                        writer,
                        encode_error(
                            None,
                            "too_large",
                            f"request line exceeds "
                            f"{MAX_LINE_BYTES} bytes",
                        ),
                    )
                    break
                if not line:
                    break  # EOF: client is gone
                if not line.strip():
                    continue
                if self._fault("connection_reset") is not None:
                    # Injected mid-call drop: the request dies without a
                    # reply, exactly like a yanked cable.
                    writer.transport.abort()
                    break
                await self._admit(loop, writer, line)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # disconnect mid-read: nothing to answer
        finally:
            self._writers.discard(writer)
            self._close_writer(writer)

    async def _admit(
        self,
        loop: asyncio.AbstractEventLoop,
        writer: asyncio.StreamWriter,
        line: bytes,
    ) -> None:
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            self.stats.malformed += 1
            self.stats.errors += 1
            self._write(writer, encode_error(None, exc.code, exc.message))
            return
        if request.op == "health":
            self._write(
                writer, encode_reply(request.id, self._health_payload(loop))
            )
            self.stats.replies += 1
            return
        now = loop.time()
        deadline = (
            now + self.config.request_timeout
            if self.config.request_timeout > 0
            else None
        )
        item = PendingRequest(
            request=request, writer=writer, arrived=now, deadline=deadline
        )
        status = await self.queue.submit(item)
        if status == "ok":
            self.stats.requests += 1
            self.stats.observe_queue_depth(len(self.queue))
        elif status == "overloaded":
            self.stats.overloads += 1
            self.stats.errors += 1
            self._write(
                writer,
                encode_error(
                    request.id,
                    "overloaded",
                    f"pending queue full ({self.queue.max_pending}); "
                    "retry later",
                ),
            )
        else:
            self.stats.errors += 1
            self._write(
                writer,
                encode_error(
                    request.id, "shutting_down", "daemon is draining"
                ),
            )

    # -- the worker and its supervisor -------------------------------------

    async def _supervise(self) -> None:
        """Run the worker; restart it when it crashes.

        A crashed worker strands its in-flight batch — the supervisor
        fails those requests with typed ``internal`` errors (exactly one
        reply per admitted request, never a hung socket), marks the
        daemon ``degraded``, and starts a fresh worker.  A clean worker
        exit means the queue closed and drained.
        """
        loop = asyncio.get_running_loop()
        while True:
            worker = loop.create_task(self._worker())
            self._worker_task = worker
            try:
                await worker
                return  # queue closed and drained
            except asyncio.CancelledError:
                worker.cancel()
                try:
                    await worker
                except (asyncio.CancelledError, Exception):  # noqa: BLE001
                    pass
                raise
            except Exception as exc:  # noqa: BLE001 - any worker crash
                self._on_worker_crash(loop, exc)
                self.stats.worker_restarts += 1

    def _on_worker_crash(
        self, loop: asyncio.AbstractEventLoop, exc: BaseException
    ) -> None:
        """Fail the stranded batch and flip health to ``degraded``."""
        self.stats.worker_crashes += 1
        self._degraded_reason = (
            f"worker crashed: {type(exc).__name__}: {exc}"
        )
        batch, self._inflight = self._inflight, None
        for item in batch or ():
            if item.delivered:
                continue
            if item.reply is None:
                item.reply = encode_error(
                    item.request.id,
                    "internal",
                    "worker crashed mid-batch; request aborted",
                )
                item.ok = False
            self._deliver(loop, item)

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = await self.queue.next_batch(self.config.batch_linger)
            if batch is None:
                return  # closed and drained
            now = loop.time()
            live = []
            for item in batch:
                if item.expired(now):
                    self.stats.timeouts += 1
                    item.reply = encode_error(
                        item.request.id,
                        "timeout",
                        f"request expired after "
                        f"{self.config.request_timeout:g}s in queue",
                    )
                    item.ok = False
                    self._deliver(loop, item)
                else:
                    live.append(item)
            if not live:
                continue
            self.stats.batches += 1
            self._inflight = live
            rule = self._fault("worker_exception")
            if rule is not None:
                raise InjectedFault(
                    "injected worker_exception "
                    f"(batch of {len(live)} {live[0].request.op!r})"
                )
            healed = True
            op = live[0].request.op
            if op == "stats":
                item = live[0]
                engine_stats = await loop.run_in_executor(
                    self._executor, self.session.stats
                )
                item.reply = encode_reply(
                    item.request.id, self._stats_payload(loop, engine_stats)
                )
                item.ok = True
                self._deliver(loop, item)
            elif ops.REGISTRY[op].kind == "write":
                item = live[0]
                apply, broadcast = _WRITES[op]
                outcome = await loop.run_in_executor(
                    self._executor, getattr(self.service, apply), item
                )
                if outcome.fingerprint is not None:
                    self._risk_fingerprint = outcome.fingerprint
                if outcome.changed:
                    self.stats.writes[op] += 1
                if self._shards is not None and outcome.applied:
                    # The write barrier: every shard rebinds to the
                    # applied field (fingerprint-acked) before the
                    # reply goes out and the next batch is taken.
                    await loop.run_in_executor(
                        self._executor,
                        getattr(self._shards, broadcast),
                        outcome.field,
                        outcome.fingerprint,
                    )
                    healed = self._sync_shard_health()
                self._record_change(op, outcome)
                self._deliver(loop, item)
            elif op == "subscribe":
                item = live[0]
                self._handle_subscribe(item)
                self._deliver(loop, item)
            else:
                if self._shards is not None:
                    metrics = await loop.run_in_executor(
                        self._executor, self._shards.execute_batch, live
                    )
                    self.stats.read_failovers += metrics["failovers"]
                    healed = self._sync_shard_health()
                else:
                    metrics = await loop.run_in_executor(
                        self._executor, self.service.execute_batch, live
                    )
                self.stats.sweeps_computed += metrics["computed"]
                for item in live:
                    self._deliver(loop, item)
            self._inflight = None
            if healed:
                # A batch completed end to end (every shard answered
                # cleanly, if sharded): the daemon has healed.
                self._degraded_reason = None

    def _record_change(self, op: str, outcome) -> None:
        """Append one changelog entry for an applied, changing write.

        No-op swaps (identical field) and token-ledger duplicates do
        not move the fingerprint, so subscribers never see them.
        """
        if not (outcome.applied and outcome.changed):
            return
        self._change_version += 1
        self._changelog.append(
            {
                "version": self._change_version,
                "op": op,
                "fingerprint": outcome.fingerprint,
            }
        )

    def _handle_subscribe(self, item: PendingRequest) -> None:
        """Answer one ``subscribe`` poll from the bounded changelog.

        Runs on the loop thread between batches (subscribe is a
        barrier op, like ``stats``), so the fingerprint reported here
        is consistent with the queue position: every change from a
        write admitted before this request is already in the log.
        """
        request = item.request
        try:
            params = ops.validate_params(
                ops.get_spec("subscribe"), request.params
            )
        except ProtocolError as exc:
            item.reply = encode_error(request.id, exc.code, exc.message)
            item.ok = False
            return
        since = params["since"]
        changes = [
            entry for entry in self._changelog if entry["version"] > since
        ]
        oldest_remembered = (
            self._changelog[0]["version"]
            if self._changelog
            else self._change_version + 1
        )
        item.reply = encode_reply(
            request.id,
            {
                "version": self._change_version,
                "changes": changes,
                # True when entries between `since` and the oldest
                # remembered one have been evicted: the subscriber
                # should resync from the current fingerprint.
                "truncated": since + 1 < oldest_remembered,
                "fingerprint": self._risk_fingerprint,
            },
        )
        item.ok = True

    def _sync_shard_health(self) -> bool:
        """Fold the pool's crash/restart deltas into server stats.

        Shard supervision reuses the worker-supervision accounting:
        each shard lost mid-batch counts as a worker crash, each
        successful respawn as a restart.  Returns True when every shard
        is up and nothing crashed since the last sync — i.e. the batch
        that just completed ran clean and health may flip back to
        ``ok``.
        """
        pool = self._shards
        assert pool is not None
        crashes = pool.crashes - self._shard_crashes_seen
        restarts = pool.restarts - self._shard_restarts_seen
        self._shard_crashes_seen = pool.crashes
        self._shard_restarts_seen = pool.restarts
        self.stats.worker_crashes += crashes
        self.stats.worker_restarts += restarts
        if crashes or pool.alive() < pool.nshards:
            self._degraded_reason = pool.last_crash or (
                f"{pool.nshards - pool.alive()} shard(s) down"
            )
            return False
        return True

    # -- reply plumbing ----------------------------------------------------

    def _deliver(
        self, loop: asyncio.AbstractEventLoop, item: PendingRequest
    ) -> None:
        if item.delivered:
            return  # exactly one reply per admitted request
        item.delivered = True
        if item.reply is None:
            item.reply = encode_error(
                item.request.id, "internal", "no reply produced"
            )
            item.ok = False
        self._write(item.writer, item.reply)
        if item.ok:
            self.stats.replies += 1
        else:
            self.stats.errors += 1
        self.stats.observe_latency(
            loop.time() - item.arrived, op=item.request.op
        )

    def _write(self, writer: asyncio.StreamWriter, data: bytes) -> None:
        """Best-effort single-call write; a vanished client is not an
        error for the daemon (the reply is simply dropped)."""
        try:
            if writer.is_closing():
                return
            rule = self._fault("partial_write")
            if rule is not None:
                # Tear the reply: flush a prefix, then FIN.  The client
                # sees an unframed fragment followed by EOF.
                writer.write(data[: max(1, len(data) // 2)])
                writer.close()
                return
            rule = self._fault("delayed_write")
            if rule is not None:
                asyncio.get_running_loop().call_later(
                    rule.delay, self._late_write, writer, data
                )
                return
            writer.write(data)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    @staticmethod
    def _late_write(writer: asyncio.StreamWriter, data: bytes) -> None:
        try:
            if not writer.is_closing():
                writer.write(data)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    @staticmethod
    def _close_writer(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    # -- payloads ----------------------------------------------------------

    def _network_info(self) -> dict:
        network = getattr(self.session, "network", None)
        return {
            "network": network.name if network is not None else None,
            "pops": self._pops,
            "risk_fingerprint": self._risk_fingerprint,
        }

    def _health_payload(self, loop: asyncio.AbstractEventLoop) -> dict:
        if self.queue.closed:
            status = "draining"
        elif self._degraded_reason is not None:
            status = "degraded"
        else:
            status = "ok"
        payload = {
            "status": status,
            "uptime_s": loop.time() - self._started_at,
            "queue_depth": len(self.queue),
        }
        if self._degraded_reason is not None:
            payload["degraded_reason"] = self._degraded_reason
        if self.stats.worker_restarts:
            payload["worker_restarts"] = self.stats.worker_restarts
        if self._shards is not None:
            payload["shards"] = {
                "count": self._shards.nshards,
                "alive": self._shards.alive(),
                "replicas": self._shards.replicas,
            }
        payload.update(self._network_info())
        return payload

    def _stats_payload(
        self, loop: asyncio.AbstractEventLoop, engine_stats: dict
    ) -> dict:
        # ``engine_stats`` was read on the executor between batches
        # (stats is a barrier op), so it cannot race a batch.
        payload = self.stats.snapshot(
            queue_depth=len(self.queue),
            uptime=loop.time() - self._started_at,
        )
        payload["degraded_reason"] = self._degraded_reason
        if self._faults is not None:
            payload["faults"] = self._faults.snapshot()
        if self._shards is not None:
            payload["shards"] = self._shards.snapshot()
        payload["engine"] = engine_stats
        payload.update(self._network_info())
        return payload


class ServerThread:
    """A daemon on a dedicated background thread with its own loop.

    Usage::

        with ServerThread(session) as (host, port):
            client = RiskRouteClient(host, port)
            ...

    The server object (for stats or tuning inspection) is available as
    ``.server`` once started.  ``stop(drain=False)`` abandons queued
    work; the context manager exit drains.
    """

    def __init__(self, session, config: Optional[ServerConfig] = None) -> None:
        self._session = session
        self._config = config
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._drain = True
        self._startup_error: Optional[BaseException] = None
        self.server: Optional[RiskRouteServer] = None
        self.address: Optional[Tuple[str, int]] = None

    def start(self) -> Tuple[str, int]:
        """Start the thread; returns the bound (host, port)."""
        self._thread = threading.Thread(
            target=self._run, name="riskroute-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server thread failed to start in 30s")
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from (
                self._startup_error
            )
        assert self.address is not None
        return self.address

    def stop(self, drain: bool = True) -> None:
        """Stop the daemon and join the thread."""
        if self._thread is None or self._loop is None:
            return
        self._drain = drain
        loop, stop_event = self._loop, self._stop_event
        if stop_event is not None:
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=60)
        self._thread = None

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - reported to starter
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.server = RiskRouteServer(self._session, self._config)
        self.address = await self.server.start()
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop(drain=self._drain)

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
