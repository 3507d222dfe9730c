"""Sweep and result caches.

Two memoization layers sit behind the engine:

* :class:`SweepCache` — per-source Dijkstra sweeps keyed by
  ``(alpha, source index)``.  Each cache belongs to one engine, and an
  engine's topology is frozen at construction, so the key needs no
  topology part; the alpha is what lets repeated pair queries, ratio
  sweeps and provisioning scoring share a search.
* :class:`ResultCache` — finished aggregates (ratio results,
  lower-bound totals) keyed by the full query signature, so repeating an
  identical all-pairs evaluation is a dictionary lookup.

Both layers are risk-scoped: when the risk field changes (a new forecast
advisory hour, different gammas, a streaming event ingest) the engine
calls :meth:`SweepCache.invalidate_risk`, which drops every risk-weighted
sweep but keeps the ``alpha == 0`` geographic sweeps — those depend only
on the topology and stay valid across advisory updates.  For a
*localized* change the engine additionally passes the sources whose
connected component the change does not touch (``keep_sources``) — a
sweep can only ever observe its source's component, so those entries
stay exact; per-source result aggregates survive the same way through
:meth:`ResultCache.retain`, while multi-source aggregates are dropped on
any risk change.

:class:`EngineConfig` sizes both layers for one engine.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import AbstractSet, Callable, Hashable, Optional, Tuple

from .sweep import SweepResult

__all__ = ["EngineConfig", "SweepCache", "ResultCache", "CacheStats"]


@dataclass(frozen=True)
class EngineConfig:
    """Cache sizes for one :class:`~repro.engine.engine.RoutingEngine`.

    Kernel choice is not a knob: see the module constants in
    :mod:`repro.engine.engine`.

    Args:
        sweep_cache_size: max memoized sweeps per engine.
        result_cache_size: max memoized aggregates per engine.
    """

    sweep_cache_size: int = 65536
    result_cache_size: int = 256


class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    __slots__ = ("hits", "misses", "evictions", "invalidations")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def as_dict(self) -> dict:
        """Plain-dict snapshot (for logging and tests)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


class SweepCache:
    """LRU cache of :class:`SweepResult` keyed by (alpha, source)."""

    def __init__(self, max_entries: int = 65536) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self._entries: "OrderedDict[Tuple[float, int], SweepResult]" = (
            OrderedDict()
        )
        self.max_entries = max_entries
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, alpha_key: float, source: int) -> Optional[SweepResult]:
        """The cached sweep, or None (counts a hit/miss either way)."""
        entry = self._entries.get((alpha_key, source))
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end((alpha_key, source))
        self.stats.hits += 1
        return entry

    def peek(self, alpha_key: float, source: int) -> bool:
        """True when cached, without touching the stats or LRU order."""
        return (alpha_key, source) in self._entries

    def put(self, alpha_key: float, source: int, result: SweepResult) -> None:
        """Insert a sweep, evicting the least-recently-used past the cap."""
        self._entries[(alpha_key, source)] = result
        self._entries.move_to_end((alpha_key, source))
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate_risk(
        self, keep_sources: Optional[AbstractSet[int]] = None
    ) -> int:
        """Drop risk-weighted sweeps; keep ``alpha == 0`` geographic ones.

        ``keep_sources`` is an optional set of source indices whose
        risk-weighted sweeps also survive — the engine passes the
        sources whose connected component the new risk field does not
        touch (a sweep can only ever see its source's component, so
        those results are still exact).

        Returns the number of entries dropped.
        """
        keep = {
            key: value
            for key, value in self._entries.items()
            if key[0] == 0.0
            or (keep_sources is not None and key[1] in keep_sources)
        }
        dropped = len(self._entries) - len(keep)
        self._entries = OrderedDict(keep)
        self.stats.invalidations += dropped
        return dropped

    def clear(self) -> None:
        """Drop everything (topology changes mean a new engine anyway)."""
        self.stats.invalidations += len(self._entries)
        self._entries.clear()


class ResultCache:
    """LRU cache of finished aggregates keyed by full query signature."""

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.max_entries = max_entries
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable):
        """The cached result, or None."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: Hashable, value) -> None:
        """Insert a result, evicting past the cap."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def retain(self, predicate: Callable[[Hashable], bool]) -> int:
        """Keep entries whose key satisfies ``predicate``; drop the rest.

        The delta-invalidation hook: on a localized risk change the
        engine keeps per-source aggregates whose source component the
        change cannot reach.  Returns the number of entries dropped.
        """
        keep = OrderedDict(
            (key, value)
            for key, value in self._entries.items()
            if predicate(key)
        )
        dropped = len(self._entries) - len(keep)
        self._entries = keep
        self.stats.invalidations += dropped
        return dropped

    def clear(self) -> None:
        """Drop everything (any risk change invalidates aggregates)."""
        self.stats.invalidations += len(self._entries)
        self._entries.clear()
