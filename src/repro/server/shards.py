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

**Placement** is registry-driven.  :func:`replicas_of` ranks every
shard for a key under **rendezvous (highest-random-weight) hashing**
of a blake2b affinity key and serves the key from its top ``replicas``
shards.  Pair ops (``route`` / ``pair``) key ``network|source|target``
so a pair always lands on the same shards — their memoized pair
routes and geographic sweeps stay hot — while params-routed ops
(``ratios`` / ``provision``) key their canonical parameter dict, so
repeats of the same heavy query hit the same shards' memoized result
caches.  Every
replica of a key is a full substitute for the others (identical
arrays, identical service code), adding a shard moves only the keys
that shard wins, and growing R keeps the first R-1 replicas
unchanged.  Only shard-routed reads reach the pool: the daemon applies
writes and answers ``stats``, ``subscribe`` and ``health`` itself, so
any replica of a key can answer any of its items.

**Balancing**: the parent picks among a key's live replicas by
**power of two choices** — sample two candidates (seeded, so the pick
is reproducible), send to the one this batch has assigned fewer items
so far, ties to the rendezvous rank winner.  Batch-local counts are
the whole load signal: only the daemon's one executor thread calls the
pool, and each batch or write broadcast collects (or kills) every
shard it sent to before returning, so nothing else is ever in flight.
A celebrity key therefore spreads over its R replicas instead of
saturating one process, at the cost of cache affinity for that key.

**Failover**: a batch is one round — send every shard its group, then
collect every answer.  A shard that died, or hung past
:data:`SHARD_TIMEOUT`, is lost for the batch.  With ``replicas >= 2``,
one failover round re-sends each lost group's items to a live replica
outside the lost set, so a request visits at most two shards, and the
``item.reply is None`` guard fills each item exactly once.  Items still
unanswered get a typed ``shard_unavailable`` error, which clients may
safely retry (:class:`~repro.server.client.RetryPolicy` does).  With
``replicas=1`` there is no failover round: typed ``internal`` errors,
fail-fast.  Lost shards are respawned before the batch returns, so
every error reply goes out after the respawn.

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
shard: a lost shard is counted, killed, and replaced by a shard
spawned from the shared segments, by one helper that batches and the
write barrier share.  The replacement only re-enters the placement map
after echoing the pool's current risk fingerprint on its warm-up ping
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
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..engine.shm import ShmManifest, SharedEngineState, attach_engine
from . import ops
from .coalesce import PendingRequest
from .faults import FaultPlane
from .protocol import Request, encode_error
from .service import QueryService, apply_field

__all__ = [
    "SHARD_TIMEOUT",
    "ShardPool",
    "ShardSpec",
    "replicas_of",
]

#: Seconds the pool waits for one shard's batch, write ack or warm-up
#: ping before it declares the shard hung and kills it.
SHARD_TIMEOUT = 120.0


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


def replicas_of(
    request: Request, nshards: int, replicas: int
) -> Tuple[int, ...]:
    """The ordered replica set (placement map row) for one request.

    Ranks every shard by ``blake2b(key + "#" + sid)`` (rendezvous
    hashing) and takes the top ``min(replicas, nshards)``, at least
    one; the first is the key's primary owner:

    * stable under shard-count growth — adding shard N only claims the
      keys N now wins; all other placements are untouched;
    * prefix-stable under replica growth — the R-replica set is a
      prefix of the (R+1)-replica set;
    * deterministic and key-order independent.

    Malformed requests pin to ``(0,)`` so the typed error reply comes
    from one place.
    """
    if nshards <= 1:
        return (0,)
    replicas = max(1, min(replicas, nshards))
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
    session = RoutingSession(
        spec.topology, spec.model, config=spec.engine_config, engine=engine
    )
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


class ShardPool:
    """N shard processes over one shared-memory engine export.

    Built by the daemon when ``ServerConfig.shards > 0``; every method
    is called from the daemon's one-thread executor (the same
    serialization discipline as the in-process service), so the pool
    needs no locking, and every call collects (or kills) each shard it
    sent to before it returns.

    Args:
        session: the parent's :class:`~repro.session.RoutingSession`
            (its engine is exported; its model seeds the shards).
        shards: shard processes to run.
        replicas: shards serving each key, clamped to ``shards``;
            1 serves every key from its rendezvous primary alone.
        faults: fault plane — ``shard_exit`` / ``replica_crash`` are
            visited parent-side (counters survive respawns); a copy
            still pickles into each child for the service-level sites.
        engine_config: tuning for shard engines (None = defaults).
    """

    def __init__(
        self,
        session,
        shards: int,
        *,
        replicas: int,
        faults: Optional[FaultPlane] = None,
        engine_config=None,
    ) -> None:
        self.nshards = shards
        self.replicas = min(replicas, shards)
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
        """Export the engine, start every shard process, then wait for
        each warm-up ping in shard order (blocking)."""
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
        # Every shard imports and attaches at once; each enters the
        # placement map only after its own warm-up ping passes.
        launched: List[_Shard] = []
        try:
            for sid in range(self.nshards):
                launched.append(self._launch(sid))
            for sid, shard in enumerate(launched):
                self._warm(sid, shard)
                self._shards[sid] = shard
        except BaseException:
            for shard in launched:
                self._kill(shard)
            self._shards = [None] * self.nshards
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
        shard = self._launch(sid)
        self._warm(sid, shard)
        return shard

    def _launch(self, sid: int) -> _Shard:
        """Start one shard process; it warms up on its own."""
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
        return _Shard(process=process, conn=parent_conn, pid=process.pid)

    def _warm(self, sid: int, shard: _Shard) -> None:
        """Block until a launched shard's warm-up ping echoes the pool's
        fingerprint; kill the shard and raise otherwise."""
        self._seq += 1
        try:
            shard.conn.send(("ping", self._seq))
            message = self._recv(shard, "pong", self._seq)
            if message is None:
                raise RuntimeError(
                    f"shard {sid} did not answer its warm-up ping "
                    f"within {SHARD_TIMEOUT:g}s"
                )
            if message[2] != self.fingerprint:
                raise RuntimeError(
                    f"shard {sid} warmed up on fingerprint "
                    f"{message[2]!r}, expected {self.fingerprint!r}"
                )
        except BaseException:
            self._kill(shard)
            raise

    def _recv(self, shard: _Shard, kind: str, seq: int):
        """The shard's answer to the ``(kind, seq)`` message, or None.

        None covers a hung shard (nothing within :data:`SHARD_TIMEOUT`),
        a dead pipe and any other message.  Because every pool call collects
        each answer it asked for before it returns, the next message
        on a pipe is always the answer to the last one sent.
        """
        try:
            if not shard.conn.poll(SHARD_TIMEOUT):
                return None
            message = shard.conn.recv()
        except (EOFError, OSError):
            return None
        return message if message[:2] == (kind, seq) else None

    @staticmethod
    def _kill(shard: _Shard) -> None:
        try:
            shard.conn.close()
        except OSError:
            pass
        if shard.process.is_alive():
            shard.process.kill()
        shard.process.join(timeout=5)

    def _is_up(self, sid: int) -> bool:
        shard = self._shards[sid]
        return shard is not None and shard.process.is_alive()

    # -- routing -----------------------------------------------------------

    def _route(self, request: Request, assigned: Dict[int, int]) -> int:
        """Pick the shard for one request (power of two choices).

        ``assigned`` counts the items this batch has already given each
        shard, so the choice sees the load it is itself creating; no
        other load exists, since the previous batch was collected in
        full before this one is routed.  Single-replica keys
        short-circuit to their one owner.  Dead slots are
        skipped while any replica lives; when *every* replica is down,
        the pick is made over the whole set so the send path pays for
        (and gates on) a respawn.
        """
        candidates = replicas_of(request, self.nshards, self.replicas)
        if len(candidates) == 1:
            return candidates[0]
        alive = [sid for sid in candidates if self._is_up(sid)]
        pool = alive if alive else list(candidates)
        if len(pool) > 2:
            pool = sorted(self._rng.sample(pool, 2), key=candidates.index)
        return min(
            pool,
            key=lambda sid: (assigned.get(sid, 0), candidates.index(sid)),
        )

    # -- batch fan-out -----------------------------------------------------

    def execute_batch(self, batch: List[PendingRequest]) -> Dict[str, int]:
        """Fan one query batch across shards; fill each item's reply.

        Same contract as
        :meth:`~repro.server.service.QueryService.execute_batch`, plus
        ``failovers`` (items answered by a surviving replica).  One
        round sends every shard its group, then collects every answer.
        With ``replicas >= 2``, one failover round re-sends each lost
        group's items to a live replica outside the lost set.  The
        lost shards are respawned, and the items still unanswered get
        typed errors (:meth:`_fail`).
        """
        groups: Dict[int, List[PendingRequest]] = {}
        assigned: Dict[int, int] = {}
        for item in batch:
            sid = self._route(item.request, assigned)
            groups.setdefault(sid, []).append(item)
            assigned[sid] = assigned.get(sid, 0) + 1
        metrics = {"demands": 0, "coalesced": 0, "computed": 0, "failovers": 0}
        lost = self._round(groups, "shard_exit", "crashed mid-batch", metrics)
        hop_lost: Dict[int, str] = {}
        if lost and self.replicas > 1:
            hops: Dict[int, List[PendingRequest]] = {}
            for sid in lost:
                for item in groups[sid]:
                    for rid in replicas_of(
                        item.request, self.nshards, self.replicas
                    ):
                        if rid not in lost and self._is_up(rid):
                            hops.setdefault(rid, []).append(item)
                            break
            hop_lost = self._round(
                hops, "replica_crash", "crashed during failover", metrics
            )
            for sid, group in hops.items():
                if sid in hop_lost:
                    self._fail(sid, "lost the failover hop too", group)
                else:
                    self.failovers += len(group)
                    metrics["failovers"] += len(group)
        for sid, why in lost.items():
            self._fail(sid, why, groups[sid])
        for sid, why in {**lost, **hop_lost}.items():
            # None: the slot was already down and its respawn just
            # failed in _ensure_shard; nothing new was lost.
            if self._shards[sid] is not None:
                self._lose(sid, why)
        return metrics

    def _round(
        self,
        groups: Dict[int, List[PendingRequest]],
        site: str,
        why: str,
        metrics: Dict[str, int],
    ) -> Dict[int, str]:
        """Send every shard its group, then collect every answer.

        ``site`` is the fault site visited once per send, in sorted
        shard order.  It is checked here in the parent, so its
        visit/fire counters survive shard respawns (a re-pickled child
        plane would reset them and re-kill every fresh shard).  Returns
        each shard lost on the way with the reason; its items are left
        unanswered.
        """
        lost: Dict[int, str] = {}
        sent: List[Tuple[int, _Shard, int]] = []
        for sid in sorted(groups):
            shard = self._ensure_shard(sid)
            if shard is None:
                lost[sid] = "unavailable"
                continue
            items = [
                (
                    item.request.id,
                    item.request.op,
                    item.request.params,
                    item.request.v,
                )
                for item in groups[sid]
            ]
            self._seq += 1
            die = (
                self._faults is not None
                and self._faults.check(site) is not None
            )
            try:
                shard.conn.send(("batch", self._seq, items, die))
            except (OSError, ValueError):
                lost[sid] = "died before batch send"
                continue
            sent.append((sid, shard, self._seq))
        # Every shard is now computing concurrently; collect in order.
        for sid, shard, seq in sent:
            group = groups[sid]
            message = self._recv(shard, "batch", seq)
            if message is None or len(message[2]) != len(group):
                lost[sid] = why
                continue
            shard.batches += 1
            for item, (reply, ok) in zip(group, message[2]):
                if item.reply is None:  # exactly one reply per request
                    item.reply = reply
                    item.ok = ok
            for key in ("demands", "coalesced", "computed"):
                metrics[key] += message[3].get(key, 0)
        return lost

    def _fail(self, sid: int, why: str, group: List[PendingRequest]) -> None:
        """Typed errors for the unanswered items of a lost shard's group.

        One replica fails fast with ``internal``.  With more, the
        key's replicas are exhausted: ``shard_unavailable`` is safe to
        retry, and a retry lands on the respawned pool.
        """
        for item in group:
            if item.reply is not None:
                continue
            if self.replicas > 1:
                item.reply = encode_error(
                    item.request.id,
                    "shard_unavailable",
                    f"shard {sid} {why}; replicas exhausted, safe to retry",
                )
                self.unavailable += 1
            else:
                item.reply = encode_error(
                    item.request.id,
                    "internal",
                    f"shard {sid} {why}; request aborted",
                )
            item.ok = False

    # -- shard supervision -------------------------------------------------

    def _ensure_shard(self, sid: int) -> Optional[_Shard]:
        if self._is_up(sid):
            return self._shards[sid]
        # A previous respawn failed (or the shard died idle): retry now.
        shard = self._shards[sid]
        if shard is not None:
            self._kill(shard)
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

    def _lose(self, sid: int, why: str) -> None:
        """Count one shard lost mid-batch or mid-write, kill it, and
        respawn it warm through the fingerprint barrier."""
        self.crashes += 1
        self.last_crash = f"shard {sid} {why}"
        self._kill(self._shards[sid])
        self._respawn(sid)

    # -- the write barrier -------------------------------------------------

    def broadcast_swap(
        self, forecast: Dict[str, float], fingerprint: str
    ) -> None:
        """Barrier-broadcast an applied forecast (``o_f``) field."""
        self._broadcast("forecast", forecast, fingerprint)

    def broadcast_ingest(
        self, historical: Dict[str, float], fingerprint: str
    ) -> None:
        """Barrier-broadcast an ingest-updated historical (``o_h``) field."""
        self._broadcast("historical", historical, fingerprint)

    def _broadcast(
        self, name: str, values: Dict[str, float], fingerprint: str
    ) -> None:
        """Push one applied per-PoP field to every shard, barriered.

        Called by the daemon *after* the parent's authoritative
        transactional write, between batches.  The field is first
        recorded in the spawn spec, so any shard (re)spawned from here
        on comes up on it.  Each live shard rebinds and acks with its
        post-write risk fingerprint; a shard whose ack is missing or
        mismatched is lost (:meth:`_lose`) and respawned warm.
        """
        assert self._spec is not None
        self._spec = replace(
            self._spec, fields={**self._spec.fields, name: dict(values)}
        )
        self.fingerprint = fingerprint
        for sid in range(self.nshards):
            shard = self._shards[sid]
            if shard is None:
                self._respawn(sid)  # comes up warm on the new field
                continue
            self._seq += 1
            try:
                shard.conn.send(("write", self._seq, name, values))
            except (OSError, ValueError):
                self._lose(sid, f"died before the {name} write")
                continue
            message = self._recv(shard, "write", self._seq)
            if message is None or message[2] != fingerprint:
                got = message[2] if message is not None else "no ack"
                self._lose(sid, f"failed the {name} write barrier ({got!r})")
                continue
            shard.swaps += 1

    # -- observability -----------------------------------------------------

    def alive(self) -> int:
        """Shards currently up."""
        return sum(1 for sid in range(self.nshards) if self._is_up(sid))

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
                }
                for shard in self._shards
            ],
        }
