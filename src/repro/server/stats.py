"""Server-side counters: the ``stats`` op's payload.

All mutation happens on the event-loop thread (connection handlers and
the worker coroutine), so plain attributes suffice — no locks.  Service
latency keeps a bounded window of recent samples; p50/p99 are computed
on snapshot, which is a control op and therefore never races a batch.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Deque, Dict, Optional

__all__ = ["ServerStats", "LATENCY_WINDOW"]

#: Latency samples kept per window (the blended one and each op's).
LATENCY_WINDOW = 2048


def _percentile(samples: list, fraction: float) -> float:
    """Nearest-rank percentile of a sorted sample list (seconds)."""
    if not samples:
        return 0.0
    rank = min(len(samples) - 1, int(fraction * len(samples)))
    return samples[rank]


class ServerStats:
    """Counters for one daemon lifetime.

    ``sweeps_computed`` counts the full sweeps the engine (or, sharded,
    every shard's engine) ran for read batches, ``ratios`` and
    ``provision`` included; target-stopped pair searches are not full
    sweeps.
    """

    def __init__(self) -> None:
        self.connections = 0
        self.requests = 0          # admitted to the queue
        self.replies = 0           # successful replies sent
        self.errors = 0            # error replies sent (any code)
        self.overloads = 0         # rejected: queue full
        self.timeouts = 0          # expired before service
        self.malformed = 0         # bad_request / unknown_op / too_large
        self.batches = 0           # worker batches executed
        self.sweeps_computed = 0   # full sweeps read batches ran
        self.writes: Counter = Counter()  # writes that changed risk, by op
        self.worker_crashes = 0    # worker task died (batch aborted)
        self.worker_restarts = 0   # supervisor restarts after a crash
        self.read_failovers = 0    # reads answered by a surviving replica
        self.queue_high_water = 0  # max pending depth observed
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        # Per-op latency windows, created on first observation.  Batched
        # ops (``provision``, ``ratios``) are far heavier than the
        # single-pair ones, so one blended histogram would hide both.
        self._op_latencies: Dict[str, Deque[float]] = {}

    def observe_queue_depth(self, depth: int) -> None:
        """Track the high-water mark of the pending queue."""
        if depth > self.queue_high_water:
            self.queue_high_water = depth

    def observe_latency(self, seconds: float, op: Optional[str] = None) -> None:
        """Record one request's arrival-to-reply service time, bucketed
        under ``op`` as well when one is given."""
        self._latencies.append(seconds)
        if op is not None:
            window = self._op_latencies.get(op)
            if window is None:
                window = deque(maxlen=LATENCY_WINDOW)
                self._op_latencies[op] = window
            window.append(seconds)

    def snapshot(self, queue_depth: int, uptime: float) -> dict:
        """The ``stats`` reply payload (server half; the daemon merges
        engine cache counters and the current risk fingerprint in)."""
        window = sorted(self._latencies)
        by_op = {
            op: {
                "count": len(samples),
                "p50_ms": _percentile(sorted(samples), 0.50) * 1e3,
                "p99_ms": _percentile(sorted(samples), 0.99) * 1e3,
            }
            for op, samples in sorted(self._op_latencies.items())
        }
        return {
            "connections": self.connections,
            "requests": self.requests,
            "replies": self.replies,
            "errors": self.errors,
            "overloads": self.overloads,
            "timeouts": self.timeouts,
            "malformed": self.malformed,
            "batches": self.batches,
            "sweeps_computed": self.sweeps_computed,
            "forecast_swaps": self.writes["update_forecast"],
            "ingests": self.writes["ingest"],
            "worker_crashes": self.worker_crashes,
            "worker_restarts": self.worker_restarts,
            "read_failovers": self.read_failovers,
            "queue_depth": queue_depth,
            "queue_high_water": self.queue_high_water,
            "p50_ms": _percentile(window, 0.50) * 1e3,
            "p99_ms": _percentile(window, 0.99) * 1e3,
            "latency_by_op": by_op,
            "uptime_s": uptime,
        }
