"""Deterministic fault injection for chaos-testing the daemon.

The serving stack preaches routing *around* failures; this module lets
the test suite hold it to that standard.  A :class:`FaultPlane` is a
schedule of :class:`FaultRule`\\ s attached to named *sites* — the
places in the daemon and service where real deployments break::

    plane = FaultPlane([
        FaultRule("worker_exception", hits=(2,)),       # 2nd batch dies
        FaultRule("partial_write", hits=(5,)),          # 5th reply torn
        FaultRule("executor_stall", rate=0.1, delay=0.05),
    ], seed=7)
    config = ServerConfig(faults=plane)

Each time the daemon reaches an instrumented site it calls
:meth:`FaultPlane.check`, which counts the visit and returns the rule
to fire (or ``None``).  ``hits`` rules fire on exact 1-based visit
numbers — fully deterministic regardless of timing — while ``rate``
rules flip a coin from one seeded :class:`random.Random`, so a given
seed replays the same fault sequence for the same visit order.  Fired
faults are counted per site and surfaced through the ``stats`` op, so a
chaos test can assert its schedule actually executed.

Production servers pass no plane (``ServerConfig.faults is None``) and
pay a single ``None`` check per site.

Sites (see :data:`FAULT_SITES`):

``connection_reset``
    The handler aborts the client's transport right after reading a
    request line — the classic mid-call connection drop.
``partial_write``
    A reply is truncated halfway and the connection aborted, leaving
    the client a torn, unframed line.
``delayed_write``
    A reply is delivered intact but ``delay`` seconds late.
``worker_exception``
    The worker loop raises :class:`InjectedFault` after taking a batch
    in flight — exercises supervision and typed batch abortion.
``executor_stall``
    The service sleeps ``delay`` seconds inside the executor before
    running a batch — exercises queue deadlines and backpressure.
``apply_update``
    A write raises *after* its new risk field has been applied —
    exercises the transactional rollback of the one write path
    (``QueryService._write``).  Visited once per applied write of
    either op: ``update_forecast`` and ``ingest`` alike.
``shard_exit``
    A shard worker process hard-exits (``os._exit``) after receiving a
    batch but before replying — the mid-batch shard crash.  The site is
    visited in the *parent* (one visit per shard-batch send), which
    then flags the doomed send, so counters survive shard respawns and
    ``hits=(1,)`` kills exactly one shard exactly once — the first
    shard to receive a batch.  Exercises shard supervision: at
    ``replicas=1`` typed ``internal`` errors for the batch, respawn +
    re-warm, and ``degraded`` health until a clean batch completes; at
    ``replicas >= 2`` the transparent read failover path instead.
``replica_crash``
    The shard receiving a *failover re-dispatch* hard-exits before
    replying — the both-replicas-down window.  Visited in the parent,
    one visit per failover send.  Exercises the one-hop bound: the
    re-dispatched reads get typed, retry-safe ``shard_unavailable``
    errors instead of a second failover hop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["FAULT_SITES", "FaultRule", "FaultPlane", "InjectedFault"]

#: Every instrumented site in the daemon/service, in rough wire order.
FAULT_SITES = (
    "connection_reset",
    "partial_write",
    "delayed_write",
    "worker_exception",
    "executor_stall",
    "apply_update",
    "shard_exit",
    "replica_crash",
)


class InjectedFault(RuntimeError):
    """An artificial failure raised by a fired fault rule."""


@dataclass(frozen=True)
class FaultRule:
    """One scheduled failure at one site.

    Args:
        site: one of :data:`FAULT_SITES`.
        hits: 1-based visit numbers of the site at which to fire
            (deterministic; independent of wall clock).
        rate: per-visit Bernoulli fire probability drawn from the
            plane's seeded RNG (used when ``hits`` is empty).
        delay: seconds, for ``delayed_write`` / ``executor_stall``.
        limit: cap on total fires for this rule (None = unlimited).
    """

    site: str
    hits: Tuple[int, ...] = ()
    rate: float = 0.0
    delay: float = 0.05
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; "
                f"expected one of {list(FAULT_SITES)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")
        if any(h < 1 for h in self.hits):
            raise ValueError("hits are 1-based visit numbers (>= 1)")


class FaultPlane:
    """A seeded schedule of fault rules, with visit/fire accounting."""

    def __init__(
        self, rules: Iterable[FaultRule] = (), seed: int = 0
    ) -> None:
        self._rules: Dict[str, List[FaultRule]] = {}
        for rule in rules:
            self._rules.setdefault(rule.site, []).append(rule)
        self._rng = random.Random(seed)
        self._fired: Dict[FaultRule, int] = {}
        self.visits: Dict[str, int] = {site: 0 for site in FAULT_SITES}
        self.fires: Dict[str, int] = {site: 0 for site in FAULT_SITES}

    def check(self, site: str) -> Optional[FaultRule]:
        """Count one visit to ``site``; return the rule to fire, if any.

        At most one rule fires per visit (first match in registration
        order).  Exhausted rules (``limit`` reached) never fire again.
        """
        if site not in self.visits:
            raise ValueError(f"unknown fault site {site!r}")
        self.visits[site] += 1
        visit = self.visits[site]
        for rule in self._rules.get(site, ()):
            fired = self._fired.get(rule, 0)
            if rule.limit is not None and fired >= rule.limit:
                continue
            if visit in rule.hits or (
                rule.rate > 0.0 and self._rng.random() < rule.rate
            ):
                self._fired[rule] = fired + 1
                self.fires[site] += 1
                return rule
        return None

    def snapshot(self) -> dict:
        """Visit/fire counters per site (the ``stats`` op's ``faults``)."""
        return {
            site: {"visits": self.visits[site], "fires": self.fires[site]}
            for site in FAULT_SITES
            if self.visits[site] or self.fires[site]
        }
