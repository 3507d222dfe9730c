"""A single-process, single-thread NDJSON load generator (asyncio).

It keeps two TCP connections to the daemon: reads on one, writes
(``ingest`` / ``update_forecast``) on the other, so writes reach the
daemon in the order they were generated and the oracle can replay them
in that order.  Requests are pipelined and replies matched by ``id``.

Every request becomes a :class:`Record`.  In the open-loop phase a
request's latency is timed from its scheduled due time, so a stall also
charges the requests that queued behind it; ``sent - due`` is the
generator's own lag.  Closed-loop requests are due when sent.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

WRITE_OPS = frozenset({"ingest", "update_forecast"})
_LINE_LIMIT = 1 << 24
REPLY_TIMEOUT = 120.0  # seconds a closed-loop request may take
DRAIN_TIMEOUT = 60.0   # seconds the open loop waits for stragglers


class Record:
    """One request and its outcome."""

    __slots__ = ("op", "params", "phase", "due", "sent", "done", "reply",
                 "future")

    def __init__(self, op: str, params: dict, phase: str,
                 due: Optional[float] = None) -> None:
        self.op = op
        self.params = params
        self.phase = phase
        self.due = due
        self.sent: Optional[float] = None
        self.done: Optional[float] = None
        self.reply: Optional[dict] = None
        self.future: Optional[asyncio.Future] = None

    @property
    def ok(self) -> bool:
        return self.reply is not None and self.reply.get("ok") is True

    @property
    def latency(self) -> float:
        return self.done - self.due


class _Connection:
    def __init__(self, reader, writer) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: Dict[int, Record] = {}
        self._task = asyncio.get_running_loop().create_task(self._read())

    def send(self, record: Record, request_id: int) -> asyncio.Future:
        record.future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = record
        line = dict(record.params, id=request_id, v=2, op=record.op)
        record.sent = time.perf_counter()
        if record.due is None:
            record.due = record.sent
        self._writer.write(json.dumps(line, separators=(",", ":")).encode()
                           + b"\n")
        return record.future

    async def _read(self) -> None:
        while True:
            line = await self._reader.readline()
            if not line:
                break
            now = time.perf_counter()
            reply = json.loads(line)
            record = self._pending.pop(reply.get("id"), None)
            if record is None:
                continue
            record.done = now
            record.reply = reply
            record.future.set_result(record)
        for record in self._pending.values():
            if not record.future.done():
                record.future.set_result(record)
        self._pending.clear()

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        try:
            await asyncio.wait_for(self._task, 5)
        except asyncio.TimeoutError:
            self._task.cancel()


class LoadGenerator:
    """Drives one daemon; use within a running event loop."""

    def __init__(self) -> None:
        self._reads: Optional[_Connection] = None
        self._writes: Optional[_Connection] = None
        self._ids = itertools.count(1)

    async def connect(self, host: str, port: int) -> None:
        conns = []
        for _ in range(2):
            reader, writer = await asyncio.open_connection(
                host, port, limit=_LINE_LIMIT
            )
            conns.append(_Connection(reader, writer))
        self._reads, self._writes = conns

    async def close(self) -> None:
        for conn in (self._reads, self._writes):
            if conn is not None:
                await conn.close()

    def _send(self, record: Record) -> asyncio.Future:
        conn = self._writes if record.op in WRITE_OPS else self._reads
        return conn.send(record, next(self._ids))

    async def call(self, op: str, params: dict, phase: str) -> Record:
        """One closed-loop request; returns its completed record (with no
        reply if none came within ``REPLY_TIMEOUT``)."""
        record = Record(op, params, phase)
        try:
            await asyncio.wait_for(
                asyncio.shield(self._send(record)), REPLY_TIMEOUT
            )
        except asyncio.TimeoutError:
            pass
        return record

    async def open_loop(self, offsets: Sequence[float], factory,
                        side: Optional[Tuple[object, Iterator[str], float]]
                        = None) -> List[Record]:
        """Send ``pair`` reads at ``offsets`` seconds from now regardless
        of replies, then wait for the stragglers.

        ``side`` is ``(factory, ops, gap)``: while the reads go out, one
        sequential stream sends the ops the endless iterator ``ops``
        yields, each ``gap`` seconds after the previous reply (phase
        ``"side"``).
        """
        records: List[Record] = []
        start = time.perf_counter()
        end = start + (offsets[-1] if offsets else 0.0)

        async def side_stream() -> None:
            side_factory, ops, gap = side
            while time.perf_counter() < end:
                op = next(ops)
                records.append(
                    await self.call(op, side_factory.params(op), "side")
                )
                await asyncio.sleep(gap)

        side_task = (
            asyncio.get_running_loop().create_task(side_stream())
            if side else None
        )
        for offset in offsets:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            record = Record("pair", factory.pair(), "open", due)
            self._send(record)
            records.append(record)
        if side_task is not None:
            await side_task
        futures = [r.future for r in records if r.phase == "open"]
        if futures:
            await asyncio.wait(futures, timeout=DRAIN_TIMEOUT)
        return records

    async def closed_loop(self, factory, mix: Sequence[Tuple[str, float]],
                          seconds: float, outstanding: int) -> List[Record]:
        """Keep ``outstanding`` reads, in the weighted ``mix``'s
        proportions, in flight for ``seconds``."""
        records: List[Record] = []
        end = time.perf_counter() + seconds
        total = sum(weight for _, weight in mix)
        credit = {op: 0.0 for op, _ in mix}

        def next_op() -> str:
            # Smooth weighted round-robin: every slice sends the mix in
            # its exact proportions rather than a random draw of them.
            for op, weight in mix:
                credit[op] += weight
            op = max(credit, key=credit.get)
            credit[op] -= total
            return op

        async def client() -> None:
            while time.perf_counter() < end:
                op = next_op()
                records.append(await self.call(op, factory.params(op), "sat"))

        await asyncio.gather(*(client() for _ in range(outstanding)))
        return records

    async def probe(self, factory, ops: Sequence[str], seconds: float,
                    min_rounds: int) -> List[Record]:
        """Send ``ops`` round-robin, one at a time, for ``seconds`` and
        at least ``min_rounds`` rounds."""
        records: List[Record] = []
        end = time.perf_counter() + seconds
        rounds = 0
        while rounds < min_rounds or time.perf_counter() < end:
            for op in ops:
                records.append(await self.call(op, factory.params(op), "probe"))
            rounds += 1
        return records
