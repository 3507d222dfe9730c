"""The sharded serving tier: N engine processes behind one acceptor.

A single-process daemon tops out at one core: the engine runs
pure-Python Dijkstra sweeps under the GIL, so concurrent clients queue
behind one CPU.  :class:`ShardPool` fans the worker's query batches
across N **shard processes**, each running the same
:class:`~repro.server.service.QueryService` over an engine rebuilt
from the parent's shared-memory segments
(:mod:`repro.engine.shm`) — the CSR arrays and the bound risk field
are mapped zero-copy, not pickled per child.

Topology of one sharded daemon::

    clients --NDJSON--> parent acceptor --batches--> ShardPool
                                                     |  (pipes)
                                   +----------+----------+
                                   | shard 0  | shard 1  | ...
                                   | engine   | engine   |
                                   +----------+----------+

**Placement** is registry-driven.  With ``replicas=1`` (the default),
:func:`shard_of` pins each key to exactly one shard: pair ops
(``route`` / ``pair``) hash ``network|source|target`` so a pair always
lands on the same shard — its ``(alpha bucket, source)`` sweep cache
stays hot — while params-routed ops (``ratios`` / ``provision``) hash
their canonical parameter dict, so repeats of the same heavy query hit
the same shard's memoized result cache.  With ``replicas=R >= 2``,
:func:`replicas_of` widens each key to its top-R shards under
**rendezvous (highest-random-weight) hashing** over the same blake2b
affinity key: every replica of a key is a full substitute for the
others (identical arrays, identical service code), adding a shard
moves only the keys that shard wins, and growing R keeps the first
R-1 replicas unchanged.  Writes and ``stats`` never reach a shard
(``routing="parent"``).

**Balancing**: for ``read``-kind ops the parent picks among a key's
live replicas by **power of two choices** — sample two candidates,
send to the less loaded, where load is the shard's in-flight batch
count plus its pipe queue depth in items (plus what this batch has
already assigned it).  A celebrity key therefore spreads over its R
replicas instead of saturating one process, at the cost of cache
affinity for that key.

**Failover**: with ``replicas >= 2``, a shard that dies mid-batch has
its undelivered *read* requests transparently re-dispatched to a
surviving replica — bounded by exactly one failover hop, preserving
the exactly-once ``delivered`` guard (an item is only ever filled
once).  If the failover hop fails too, the request gets a typed
``shard_unavailable`` error, which clients may safely retry
(:class:`~repro.server.client.RetryPolicy` does by default).  With
``replicas=1`` the PR 6 behavior is preserved bit-for-bit: typed
``internal`` errors, fail-fast.  Writes always keep fail-fast
semantics — they are applied by the parent and barriered, never
re-dispatched.

**Writes** keep the single-process guarantee: the parent applies
``update_forecast`` / ``ingest`` authoritatively through the service's
one write path (token ledger, transactional rollback, incremental
KDE), then broadcasts the applied per-PoP field — the forecast o_f, or
the recomputed historical o_h — as one ``write`` message to every
shard and collects a **fingerprint barrier**: each shard acks with
its post-apply risk fingerprint, which must equal the parent's.
Shards never see raw disaster events; they receive the already
evaluated per-PoP field, so their rebind is a cheap dict swap and the
fingerprint check proves byte-identical risk everywhere.  Queue
barrier placement means no query batch is in flight during the
broadcast, so no reply anywhere can mix pre- and post-write risk;
a shard that fails the barrier is killed and respawned warm: the pool
keeps the current value of each written field in its spawn spec, and
a fresh shard re-applies them before its warm-up ping.

**Supervision / rejoin** mirrors the PR4 single-worker watchdog, per
shard: a crashed shard is killed, its in-flight reads failed over (or
typed errors emitted), and a replacement spawned from the shared
segments.  The replacement only re-enters the placement map after
echoing the pool's current risk fingerprint on its warm-up ping
(:meth:`ShardPool._spawn` raises otherwise and the slot stays down) —
routing skips dead slots, so clients are served by the surviving
replicas until the rejoin barrier passes.

Because every shard executes the identical service code over the
identical arrays, replies are **byte-identical** to single-process
mode — same paths, same floats, same fingerprints — regardless of
which replica served them.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
import signal
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..engine.shm import ShmManifest, SharedEngineState, attach_engine
from . import ops
from .coalesce import PendingRequest
from .faults import FaultPlane
from .protocol import Request, encode_error
from .service import QueryService, apply_field

__all__ = [
    "ShardConfig",
    "ShardPool",
    "ShardSpec",
    "replicas_of",
    "shard_of",
]


def _affinity_key(request: Request) -> Optional[str]:
    """The placement key one request hashes under (None = malformed).

    ``pair``-routed ops key ``network|source|target`` (the network
    prefix of the source PoP id gives per-network affinity); every
    other op keys its canonical parameter JSON.
    """
    spec = ops.REGISTRY.get(request.op)
    routing = spec.routing if spec is not None else "params"
    if routing == "pair":
        source = request.params.get("source")
        target = request.params.get("target")
        if not (isinstance(source, str) and isinstance(target, str)):
            return None
        network = source.split(":", 1)[0]
        return f"{network}|{source}|{target}"
    try:
        return json.dumps(
            {"op": request.op, "params": request.params},
            sort_keys=True,
            default=repr,
        )
    except (TypeError, ValueError):
        return None


def shard_of(request: Request, nshards: int) -> int:
    """The primary shard index one request routes to (deterministic).

    This is the PR 6 placement — blake2b of the affinity key, modulo
    the shard count — and stays the *only* placement when
    ``replicas=1``.  Malformed requests fall through to shard 0, whose
    service produces the typed error reply.
    """
    if nshards <= 1:
        return 0
    key = _affinity_key(request)
    if key is None:
        return 0
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % nshards


def replicas_of(
    request: Request, nshards: int, replicas: int
) -> Tuple[int, ...]:
    """The ordered replica set (placement map row) for one request.

    ``replicas <= 1`` returns ``(shard_of(request, nshards),)`` —
    bit-for-bit the PR 6 modulo placement, so single-replica configs
    cannot move a single key.  ``replicas >= 2`` ranks every shard by
    ``blake2b(key + "#" + sid)`` (rendezvous hashing) and takes the
    top ``min(replicas, nshards)``:

    * stable under shard-count growth — adding shard N only claims the
      keys N now wins; all other placements are untouched;
    * prefix-stable under replica growth — the R-replica set is a
      prefix of the (R+1)-replica set;
    * deterministic and key-order independent, like :func:`shard_of`.

    Malformed requests pin to ``(0,)`` so the typed error reply comes
    from one place.
    """
    if nshards <= 1:
        return (0,)
    replicas = max(1, min(replicas, nshards))
    if replicas == 1:
        return (shard_of(request, nshards),)
    key = _affinity_key(request)
    if key is None:
        return (0,)
    ranked = sorted(
        range(nshards),
        key=lambda sid: hashlib.blake2b(
            f"{key}#{sid}".encode("utf-8"), digest_size=8
        ).digest(),
        reverse=True,
    )
    return tuple(ranked[:replicas])


@dataclass(frozen=True)
class ShardConfig:
    """Placement knobs and the watchdog timeout for one :class:`ShardPool`.

    ``replicas`` is clamped to ``shards`` by the pool; ``replicas=1``
    reproduces single-owner :func:`shard_of` affinity exactly.
    """

    shards: int
    replicas: int = 1
    #: Seconds to wait for one shard batch, write ack or warm-up ping
    #: before the shard is declared hung and killed.
    timeout: float = 120.0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


@dataclass(frozen=True)
class ShardSpec:
    """Everything one shard child needs, picklable for ``spawn``.

    The heavy engine arrays travel via the shared-memory ``manifest``;
    the rest — the topology object (for the child's session), the risk
    model (plain value dicts), tuning, and the child's copy of the
    fault plane — pickle normally.
    """

    topology: Any                    # Network or Graph for RoutingSession
    model: Any                       # RiskModel
    manifest: ShmManifest
    engine_config: Any = None        # EngineConfig or None
    faults: Optional[FaultPlane] = None
    #: The current value of every field written since boot, by name
    #: (``forecast`` / ``historical``), re-applied on (re)spawn so a
    #: restarted shard comes up on the current risk, not the boot one.
    fields: Dict[str, Dict[str, float]] = field(default_factory=dict)


# -- the child process -------------------------------------------------------


def _shard_main(shard_id: int, conn, spec: ShardSpec) -> None:
    """One shard process: map segments, build a service, serve the pipe.

    Message protocol (parent -> child / child -> parent)::

        ("ping", seq)                  -> ("pong", seq, risk_fingerprint, pid)
        ("batch", seq, items, die)     -> ("batch", seq, replies, metrics)
        ("write", seq, name, values)   -> ("write", seq, risk_fingerprint)
        ("stop",)                      -> (child exits)

    Batch items are ``(request_id, op, params, v)`` tuples; replies are
    ``(reply_bytes, ok)`` in item order — the child runs the *real*
    :meth:`QueryService.execute_batch`, so the encoded reply lines are
    byte-identical to single-process serving.  ``die`` (the parent's
    ``shard_exit`` / ``replica_crash`` fault plane) kills the child
    before it answers.  A ``write`` rebinds one per-PoP field through
    :func:`~repro.server.service.apply_field`; a failed apply acks
    ``"error: ..."`` in place of the fingerprint.
    """
    # The parent orchestrates shutdown (drain, then "stop"); a Ctrl+C
    # delivered to the whole process group must not kill shards first.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    from ..session import RoutingSession

    engine = attach_engine(
        spec.manifest, spec.model, config=spec.engine_config
    )
    # The session fingerprints its live graph and resolves to the
    # adopted shared-memory engine through the registry.
    session = RoutingSession(
        spec.topology, spec.model, config=spec.engine_config
    )
    if session.engine is not engine:  # pragma: no cover - defensive
        raise RuntimeError("shard session did not adopt the shm engine")
    for name, values in spec.fields.items():
        apply_field(session, name, values)
    service = QueryService(session, faults=spec.faults)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # parent is gone; nothing left to serve
        kind = message[0]
        if kind == "ping":
            conn.send(
                ("pong", message[1], session.engine.risk_fingerprint,
                 os.getpid())
            )
        elif kind == "batch":
            _, seq, items, die = message
            if die:
                # Injected mid-batch death (the parent's ``shard_exit``
                # or ``replica_crash`` fault plane fired for this
                # send): the batch is consumed but never answered,
                # exactly like a seg-faulted worker.
                conn.close()
                os._exit(13)
            pending = [
                PendingRequest(
                    request=Request(op=op, id=rid, params=params, v=v),
                    writer=None,
                    arrived=0.0,
                )
                for rid, op, params, v in items
            ]
            metrics = service.execute_batch(pending)
            conn.send(
                (
                    "batch",
                    seq,
                    [(item.reply, bool(item.ok)) for item in pending],
                    metrics,
                )
            )
        elif kind == "write":
            _, seq, name, values = message
            try:
                apply_field(session, name, values)
                conn.send(("write", seq, session.engine.risk_fingerprint))
            except Exception as exc:  # noqa: BLE001 - reported to parent
                conn.send(("write", seq, f"error: {exc}"))
        elif kind == "stop":
            break
    try:
        conn.close()
    except OSError:
        pass


# -- the parent-side pool ----------------------------------------------------


@dataclass
class _Shard:
    """Parent-side handle on one live shard process."""

    process: Any
    conn: Any
    pid: int
    batches: int = 0
    swaps: int = 0
    #: Load signal: batches sent but not yet answered, and the item
    #: count still queued in those batches (pipe queue depth).
    inflight_batches: int = 0
    inflight_items: int = 0

    @property
    def load(self) -> int:
        return self.inflight_batches + self.inflight_items


class ShardPool:
    """N shard processes over one shared-memory engine export.

    Built by the daemon when ``ServerConfig.shards > 0``; every method
    is called from the daemon's one-thread executor (the same
    serialization discipline as the in-process service), so the pool
    needs no locking.

    Args:
        session: the parent's :class:`~repro.session.RoutingSession`
            (its engine is exported; its model seeds the shards).
        config: placement and timeout knobs (:class:`ShardConfig`).
        faults: fault plane — ``shard_exit`` / ``replica_crash`` are
            visited parent-side (counters survive respawns); a copy
            still pickles into each child for the service-level sites.
        engine_config: tuning for shard engines (None = defaults).
    """

    def __init__(
        self,
        session,
        config: ShardConfig,
        *,
        faults: Optional[FaultPlane] = None,
        engine_config=None,
    ) -> None:
        self.config = config
        self.nshards = config.shards
        self.replicas = min(config.replicas, config.shards)
        self.timeout = config.timeout
        self._session = session
        self._faults = faults
        self._engine_config = engine_config
        # ``fork`` would duplicate the daemon's event-loop threads into
        # children in undefined states; ``spawn`` pays a slower start
        # for deterministic, thread-free children.
        self._ctx = multiprocessing.get_context("spawn")
        self._state: Optional[SharedEngineState] = None
        self._spec: Optional[ShardSpec] = None
        self._shards: List[Optional[_Shard]] = [None] * self.nshards
        self._seq = 0
        #: (sid, seq) -> item count for every batch sent but not yet
        #: answered; drives the load signal.
        self._sent: Dict[Tuple[int, int], int] = {}
        #: Replies that arrived while the pool was waiting on a
        #: *different* sequence from the same shard (a pipe is FIFO:
        #: an earlier group's reply can land first during a failover
        #: collect).  Consumed by that group's own collect; entries
        #: cannot outlive their execute_batch call.
        self._stash: Dict[Tuple[int, int], Any] = {}
        # Seeded: the two-choice sample is reproducible run to run.
        self._rng = random.Random(0x52525247)
        #: Risk fingerprint every healthy shard must currently report.
        self.fingerprint: Optional[str] = None
        self.crashes = 0
        self.restarts = 0
        self.failovers = 0
        self.unavailable = 0
        self.last_crash: Optional[str] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Export the engine and spawn + warm every shard (blocking)."""
        engine = self._session.engine
        self._state = SharedEngineState.export(engine)
        topology = (
            self._session.network
            if self._session.network is not None
            else self._session.graph
        )
        self._spec = ShardSpec(
            topology=topology,
            model=self._session.model,
            manifest=self._state.manifest,
            engine_config=self._engine_config,
            faults=self._faults,
        )
        self.fingerprint = engine.risk_fingerprint
        try:
            for sid in range(self.nshards):
                self._shards[sid] = self._spawn(sid)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Stop every shard and release the shared segments."""
        for sid, shard in enumerate(self._shards):
            if shard is None:
                continue
            try:
                shard.conn.send(("stop",))
            except (OSError, ValueError):
                pass
            shard.process.join(timeout=5)
            if shard.process.is_alive():
                shard.process.kill()
                shard.process.join(timeout=5)
            try:
                shard.conn.close()
            except OSError:
                pass
            self._shards[sid] = None
        self._sent.clear()
        self._stash.clear()
        if self._state is not None:
            self._state.close()
            self._state = None

    def _spawn(self, sid: int) -> _Shard:
        """Start one shard and block until its warm-up ping acks.

        The fingerprint check *is* the rejoin barrier: a replacement
        shard only enters the placement map (``self._shards[sid]``)
        after echoing the pool's current risk fingerprint — a shard
        warmed on a stale field is killed here and its slot stays
        down, served by the surviving replicas.
        """
        assert self._spec is not None
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_shard_main,
            args=(sid, child_conn, self._spec),
            name=f"riskroute-shard-{sid}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        shard = _Shard(process=process, conn=parent_conn, pid=process.pid)
        self._seq += 1
        try:
            parent_conn.send(("ping", self._seq))
            if not parent_conn.poll(self.timeout):
                raise TimeoutError(
                    f"shard {sid} did not warm up in {self.timeout:g}s"
                )
            kind, seq, fingerprint, _pid = parent_conn.recv()
            if kind != "pong" or seq != self._seq:
                raise RuntimeError(
                    f"shard {sid} answered {kind!r} to its warm-up ping"
                )
            if fingerprint != self.fingerprint:
                raise RuntimeError(
                    f"shard {sid} warmed up on fingerprint "
                    f"{fingerprint!r}, expected {self.fingerprint!r}"
                )
        except BaseException:
            self._kill(shard)
            raise
        return shard

    @staticmethod
    def _kill(shard: _Shard) -> None:
        try:
            shard.conn.close()
        except OSError:
            pass
        if shard.process.is_alive():
            shard.process.kill()
        shard.process.join(timeout=5)

    def _teardown(self, sid: int) -> None:
        """Kill one shard and forget its in-flight bookkeeping."""
        shard = self._shards[sid]
        if shard is not None:
            self._kill(shard)
            self._shards[sid] = None
        for key in [key for key in self._sent if key[0] == sid]:
            del self._sent[key]

    def _is_up(self, sid: int) -> bool:
        shard = self._shards[sid]
        return shard is not None and shard.process.is_alive()

    # -- routing -----------------------------------------------------------

    def _route(self, request: Request, assigned: Dict[int, int]) -> int:
        """Pick the shard for one request (power of two choices).

        ``assigned`` counts items this batch has already given each
        shard, so the choice sees the load it is itself creating.
        Single-replica keys short-circuit to the PR 6 owner.  Dead
        slots are skipped while any replica lives; when *every*
        replica is down, the primary is returned so the send path pays
        for (and gates on) its respawn.
        """
        candidates = replicas_of(request, self.nshards, self.replicas)
        if len(candidates) == 1:
            return candidates[0]
        alive = [sid for sid in candidates if self._is_up(sid)]
        pool = alive if alive else list(candidates)
        if len(pool) > 2:
            pool = sorted(self._rng.sample(pool, 2), key=candidates.index)

        def load(sid: int) -> int:
            shard = self._shards[sid]
            inflight = 0 if shard is None else shard.load
            return inflight + assigned.get(sid, 0)

        return min(pool, key=lambda sid: (load(sid), candidates.index(sid)))

    def _failover_target(
        self, request: Request, dead_sid: int
    ) -> Optional[int]:
        """The surviving replica a read re-dispatches to (or None).

        Only ``replicable`` ops (reads served identically by any
        replica) ever fail over; writes and parent-routed ops cannot
        reach here, but the guard keeps the invariant local.
        """
        spec = ops.REGISTRY.get(request.op)
        if spec is None or not spec.replicable:
            return None
        for sid in replicas_of(request, self.nshards, self.replicas):
            if sid != dead_sid and self._is_up(sid):
                return sid
        return None

    # -- batch fan-out -----------------------------------------------------

    def execute_batch(self, batch: List[PendingRequest]) -> Dict[str, int]:
        """Fan one query batch across shards; fill each item's reply.

        Same contract as
        :meth:`~repro.server.service.QueryService.execute_batch`, plus
        ``crashes`` (shards lost mid-batch) and ``failovers`` (read
        items transparently answered by a surviving replica).
        """
        groups: Dict[int, List[PendingRequest]] = {}
        assigned: Dict[int, int] = {}
        for item in batch:
            sid = self._route(item.request, assigned)
            groups.setdefault(sid, []).append(item)
            assigned[sid] = assigned.get(sid, 0) + 1
        metrics = {
            "demands": 0,
            "coalesced": 0,
            "computed": 0,
            "crashes": 0,
            "failovers": 0,
        }
        inflight: List[Tuple[int, int, List[PendingRequest]]] = []
        for sid in sorted(groups):
            group = groups[sid]
            shard = self._ensure_shard(sid)
            if shard is None:
                metrics["crashes"] += 1
                if self.replicas > 1:
                    self._redispatch(sid, group, "unavailable", metrics)
                else:
                    self._fail_group(sid, group, "unavailable")
                continue
            seq = self._send_batch(sid, shard, group, "shard_exit")
            if seq is None:
                self._group_crash(sid, group, "died before batch send",
                                  metrics)
                continue
            inflight.append((sid, seq, group))
        # Every shard is now computing concurrently; collect in order.
        for sid, seq, group in inflight:
            self._collect_group(sid, seq, group, metrics)
        return metrics

    def _send_batch(
        self,
        sid: int,
        shard: _Shard,
        group: List[PendingRequest],
        die_site: str,
    ) -> Optional[int]:
        """Send one group to one shard; None means the pipe is dead.

        Fault sites are checked here, in the parent, so their
        visit/fire counters survive shard respawns (a re-pickled child
        plane would reset them and re-kill every fresh shard).  One
        visit per shard-batch send: ``shard_exit`` on primary sends,
        ``replica_crash`` on failover re-dispatch.
        """
        items = [
            (
                item.request.id,
                item.request.op,
                item.request.params,
                item.request.v,
            )
            for item in group
        ]
        self._seq += 1
        die = (
            self._faults is not None
            and self._faults.check(die_site) is not None
        )
        try:
            shard.conn.send(("batch", self._seq, items, die))
        except (OSError, ValueError):
            return None
        shard.inflight_batches += 1
        shard.inflight_items += len(items)
        self._sent[(sid, self._seq)] = len(items)
        return self._seq

    def _settle(self, sid: int, message) -> None:
        """Account one received batch reply against the load signal."""
        count = self._sent.pop((sid, message[1]), None)
        if count is None:
            return
        shard = self._shards[sid]
        if shard is not None:
            shard.inflight_batches = max(0, shard.inflight_batches - 1)
            shard.inflight_items = max(0, shard.inflight_items - count)

    def _recv_matching(
        self, sid: int, shard: _Shard, kind: str, seq: int, timeout: float
    ):
        """Next ``(kind, seq)`` message from one shard, draining strays.

        A shard pipe is FIFO but the pool may owe it several replies
        (a failover hop lands on a shard whose own group is still
        uncollected): batch replies for other sequences are settled
        and stashed for their own collect.  Returns None on timeout or
        a dead pipe; a mismatched non-batch message is returned for
        the caller to treat as a protocol violation.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            try:
                if not shard.conn.poll(remaining):
                    return None
                message = shard.conn.recv()
            except (EOFError, OSError):
                return None
            if message[0] != "batch":
                return message
            self._settle(sid, message)
            if kind == "batch" and message[1] == seq:
                return message
            self._stash[(sid, message[1])] = message
            # Keep waiting for the sequence we came for.

    @staticmethod
    def _fill(
        group: List[PendingRequest], message, seq: int
    ) -> Optional[Dict[str, int]]:
        """Fill undelivered items from a batch reply; None = invalid.

        The ``item.reply is None`` guard is what makes failover
        exactly-once: a late duplicate can never overwrite a delivered
        reply.
        """
        if (
            message is None
            or message[0] != "batch"
            or message[1] != seq
            or len(message[2]) != len(group)
        ):
            return None
        for item, (reply, ok) in zip(group, message[2]):
            if item.reply is None:
                item.reply = reply
                item.ok = ok
        return message[3]

    def _collect_group(
        self,
        sid: int,
        seq: int,
        group: List[PendingRequest],
        metrics: Dict[str, int],
    ) -> None:
        stashed = self._stash.pop((sid, seq), None)
        if stashed is not None:
            submetrics = self._fill(group, stashed, seq)
            if submetrics is not None:
                shard = self._shards[sid]
                if shard is not None:
                    shard.batches += 1
                self._merge(metrics, submetrics)
                return
        if (sid, seq) not in self._sent:
            # The shard was torn down after this send (it crashed as
            # the failover target of an earlier group): the pipe and
            # any reply are gone.  The crash was already counted.
            if self.replicas > 1:
                self._redispatch(sid, group, "crashed mid-batch", metrics)
            else:
                self._fail_group(sid, group, "crashed mid-batch")
            return
        shard = self._shards[sid]
        message = self._recv_matching(sid, shard, "batch", seq, self.timeout)
        submetrics = self._fill(group, message, seq)
        if submetrics is None:
            self._group_crash(sid, group, "crashed mid-batch", metrics)
            return
        shard.batches += 1
        self._merge(metrics, submetrics)

    @staticmethod
    def _merge(metrics: Dict[str, int], submetrics: Dict[str, int]) -> None:
        for key in ("demands", "coalesced", "computed"):
            metrics[key] += submetrics.get(key, 0)

    def _group_crash(
        self,
        sid: int,
        group: List[PendingRequest],
        why: str,
        metrics: Dict[str, int],
    ) -> None:
        """A shard died (or hung) holding a group: fail over or fail.

        With replicas, undelivered reads re-dispatch to a surviving
        replica *before* the slow respawn, so the failover reply is
        not serialized behind a process spawn.  With ``replicas=1``
        this is exactly the PR 6 path: typed ``internal`` errors.
        """
        self.crashes += 1
        self.last_crash = f"shard {sid} {why}"
        metrics["crashes"] += 1
        self._teardown(sid)
        undelivered = [item for item in group if item.reply is None]
        if self.replicas > 1:
            self._redispatch(sid, undelivered, why, metrics)
        else:
            self._fail_group(sid, undelivered, why)
        self._respawn(sid)

    def _redispatch(
        self,
        dead_sid: int,
        items: List[PendingRequest],
        why: str,
        metrics: Dict[str, int],
    ) -> None:
        """One failover hop: re-dispatch undelivered reads, typed-fail
        the rest.

        Bounded by construction: a re-dispatched group that fails
        again goes straight to ``shard_unavailable`` — there is no
        recursive call, so a request visits at most two shards.
        """
        regrouped: Dict[int, List[PendingRequest]] = {}
        stranded: List[PendingRequest] = []
        for item in items:
            target = self._failover_target(item.request, dead_sid)
            if target is None:
                stranded.append(item)
            else:
                regrouped.setdefault(target, []).append(item)
        self._fail_unavailable(dead_sid, stranded, why)
        for tsid in sorted(regrouped):
            titems = regrouped[tsid]
            shard = self._shards[tsid]
            seq = None
            if shard is not None:
                seq = self._send_batch(tsid, shard, titems, "replica_crash")
            message = None
            if seq is not None:
                message = self._recv_matching(
                    tsid, shard, "batch", seq, self.timeout
                )
            submetrics = self._fill(titems, message, seq)
            if submetrics is None:
                self.crashes += 1
                self.last_crash = f"shard {tsid} crashed during failover"
                metrics["crashes"] += 1
                self._teardown(tsid)
                self._fail_unavailable(
                    tsid, titems, "lost the failover hop too"
                )
                self._respawn(tsid)
                continue
            shard.batches += 1
            self.failovers += len(titems)
            metrics["failovers"] += len(titems)
            self._merge(metrics, submetrics)

    # -- shard supervision -------------------------------------------------

    def _ensure_shard(self, sid: int) -> Optional[_Shard]:
        shard = self._shards[sid]
        if shard is not None and shard.process.is_alive():
            return shard
        # A previous respawn failed (or the shard died idle): retry now.
        if shard is not None:
            self._teardown(sid)
        return self._respawn(sid)

    def _respawn(self, sid: int) -> Optional[_Shard]:
        try:
            shard = self._spawn(sid)
        except Exception as exc:  # noqa: BLE001 - shard stays down
            self.last_crash = f"shard {sid} respawn failed: {exc}"
            self._shards[sid] = None
            return None
        self._shards[sid] = shard
        self.restarts += 1
        return shard

    def _fail_group(
        self, sid: int, group: List[PendingRequest], why: str
    ) -> None:
        """PR 6 fail-fast: typed ``internal`` errors (replicas=1)."""
        for item in group:
            if item.reply is None:
                item.reply = encode_error(
                    item.request.id,
                    "internal",
                    f"shard {sid} {why}; request aborted",
                )
                item.ok = False

    def _fail_unavailable(
        self, sid: int, group: List[PendingRequest], why: str
    ) -> None:
        """Typed, retry-safe refusal: the key's replica set is down."""
        for item in group:
            if item.reply is None:
                item.reply = encode_error(
                    item.request.id,
                    "shard_unavailable",
                    f"shard {sid} {why}; replicas exhausted, safe to retry",
                )
                item.ok = False
                self.unavailable += 1

    # -- the write barrier -------------------------------------------------

    def broadcast_swap(
        self, forecast: Dict[str, float], fingerprint: str
    ) -> int:
        """Barrier-broadcast an applied forecast (``o_f``) field."""
        return self._broadcast("forecast", forecast, fingerprint)

    def broadcast_ingest(
        self, historical: Dict[str, float], fingerprint: str
    ) -> int:
        """Barrier-broadcast an ingest-updated historical (``o_h``) field."""
        return self._broadcast("historical", historical, fingerprint)

    def _broadcast(
        self, name: str, values: Dict[str, float], fingerprint: str
    ) -> int:
        """Push one applied per-PoP field to every shard, barriered.

        Called by the daemon *after* the parent's authoritative
        transactional write, between batches.  The field is first
        recorded in the spawn spec, so any shard (re)spawned from here
        on comes up on it.  Each live shard rebinds and acks with its
        post-write risk fingerprint; a shard whose ack is missing or
        mismatched is killed and respawned warm.  Stale batch replies
        are stashed by the matching recv, so the barrier can never
        confuse a read reply for a write ack.  Returns the number of
        shards lost this way.
        """
        assert self._spec is not None
        self._spec = replace(
            self._spec, fields={**self._spec.fields, name: dict(values)}
        )
        self.fingerprint = fingerprint
        crashes = 0
        for sid in range(self.nshards):
            shard = self._shards[sid]
            if shard is None:
                self._respawn(sid)  # comes up warm on the new field
                continue
            self._seq += 1
            try:
                shard.conn.send(("write", self._seq, name, values))
            except (OSError, ValueError):
                self._swap_crash(sid, f"died before the {name} write")
                crashes += 1
                continue
            message = self._recv_matching(
                sid, shard, "write", self._seq, self.timeout
            )
            if (
                message is None
                or message[0] != "write"
                or message[1] != self._seq
                or message[2] != fingerprint
            ):
                got = message[2] if message is not None else "no ack"
                self._swap_crash(
                    sid, f"failed the {name} write barrier ({got!r})"
                )
                crashes += 1
                continue
            shard.swaps += 1
        return crashes

    def _swap_crash(self, sid: int, why: str) -> None:
        self.crashes += 1
        self.last_crash = f"shard {sid} {why}"
        self._teardown(sid)
        self._respawn(sid)

    # -- observability -----------------------------------------------------

    def alive(self) -> int:
        """Shards currently up."""
        return sum(
            1
            for shard in self._shards
            if shard is not None and shard.process.is_alive()
        )

    def snapshot(self) -> dict:
        """Pool counters for the ``stats`` op."""
        return {
            "count": self.nshards,
            "alive": self.alive(),
            "replicas": self.replicas,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "failovers": self.failovers,
            "unavailable": self.unavailable,
            "fingerprint": self.fingerprint,
            "per_shard": [
                None
                if shard is None
                else {
                    "pid": shard.pid,
                    "batches": shard.batches,
                    "swaps": shard.swaps,
                    "load": shard.load,
                }
                for shard in self._shards
            ],
        }
