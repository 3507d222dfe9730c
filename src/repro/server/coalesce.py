"""The bounded pending queue with batch formation and barriers.

Admission control happens at :meth:`CoalescingQueue.submit`: past
``max_pending`` in-flight requests the daemon answers ``overloaded``
immediately instead of accumulating unbounded latency, and a closed
(draining) queue admits nothing.

The single worker consumes the queue through :meth:`next_batch`, which
returns either

* one **barrier** request alone — every write and control op
  (``update_forecast``, ``ingest``, ``stats``, ``subscribe``) is one:
  every query admitted before it is served under the pre-barrier
  state, every query after under the post-barrier state; or
* up to :data:`MAX_BATCH` consecutive **query** requests, which share
  one hop to the service executor.  An optional ``linger`` lets a
  just-started batch wait a few milliseconds for concurrent requests
  to land.  The service answers a batch's requests one by one, in
  order, each as a direct session call would; batchmates share sweeps
  only through the engine's caches, so no reply depends on its batch.

FIFO order is never reordered — batches are contiguous runs — so the
barrier guarantee is positional, not probabilistic.  Whether a request
is a barrier is its op's :attr:`~repro.server.ops.OpSpec.is_barrier`.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, List, Optional

from .ops import REGISTRY
from .protocol import Request

__all__ = ["PendingRequest", "CoalescingQueue", "MAX_BATCH"]

#: Most query requests one batch holds.
MAX_BATCH = 64


@dataclass
class PendingRequest:
    """One admitted request waiting for the worker."""

    request: Request
    writer: Any                      # asyncio.StreamWriter (duck-typed)
    arrived: float                   # loop.time() at admission
    deadline: Optional[float] = None  # loop.time() expiry, None = never
    reply: Optional[bytes] = field(default=None, compare=False)
    ok: Optional[bool] = field(default=None, compare=False)
    delivered: bool = field(default=False, compare=False)

    def expired(self, now: float) -> bool:
        """True when the per-request deadline has passed."""
        return self.deadline is not None and now >= self.deadline


def _is_barrier(item: PendingRequest) -> bool:
    """True for a write or control op, which runs alone between batches."""
    return REGISTRY[item.request.op].is_barrier


class CoalescingQueue:
    """Bounded FIFO of :class:`PendingRequest` with barrier batching."""

    def __init__(self, max_pending: int = 256) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.max_pending = max_pending
        self._items: Deque[PendingRequest] = deque()
        self._cond = asyncio.Condition()
        self._closed = False
        self._controls = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        """True once draining has begun; nothing further is admitted."""
        return self._closed

    async def submit(self, item: PendingRequest) -> str:
        """Try to admit one request.

        Returns ``"ok"``, ``"overloaded"`` (queue full) or ``"closed"``
        (daemon draining) — the caller turns the latter two into typed
        error replies.
        """
        async with self._cond:
            if self._closed:
                return "closed"
            if len(self._items) >= self.max_pending:
                return "overloaded"
            self._items.append(item)
            if _is_barrier(item):
                self._controls += 1
            self._cond.notify_all()
            return "ok"

    async def close(self) -> None:
        """Stop admissions; queued work remains for the worker to drain."""
        async with self._cond:
            self._closed = True
            self._cond.notify_all()

    async def next_batch(
        self, linger: float = 0.0
    ) -> Optional[List[PendingRequest]]:
        """The next contiguous batch, or None when closed and drained."""
        async with self._cond:
            while not self._items:
                if self._closed:
                    return None
                await self._cond.wait()
            head = self._items[0]
            if _is_barrier(head):
                self._items.popleft()
                self._controls -= 1
                return [head]
            if linger > 0.0:
                await self._linger_locked(linger)
            batch: List[PendingRequest] = []
            while (
                self._items
                and len(batch) < MAX_BATCH
                and not _is_barrier(self._items[0])
            ):
                batch.append(self._items.popleft())
            return batch

    async def _linger_locked(self, linger: float) -> None:
        """Hold a query batch open briefly so concurrent requests join it.

        Ends early when the batch is full, a control op arrives (its
        barrier must not be delayed behind an idle wait), or the queue
        closes.  Called with the condition lock held.
        """
        loop = asyncio.get_running_loop()
        end = loop.time() + linger
        while (
            len(self._items) < MAX_BATCH
            and self._controls == 0
            and not self._closed
        ):
            remaining = end - loop.time()
            if remaining <= 0.0:
                break
            try:
                await asyncio.wait_for(self._cond.wait(), remaining)
            except asyncio.TimeoutError:
                break
