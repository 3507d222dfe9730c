"""The engine's memo: one LRU cache class, used three times.

Each :class:`~repro.engine.engine.RoutingEngine` holds three
:class:`LruCache` instances:

* sweeps — per-source Dijkstra sweeps keyed by ``(alpha, source
  index)``.  Each cache belongs to one engine, and an engine's topology
  is frozen at construction, so the key needs no topology part; the
  alpha is what lets the geographic side of pair queries, ratio sweeps
  and provisioning scoring share a search.
* routes — single-pair answers keyed by ``(kind, source index, target
  index)``: ``EXACT`` risk routes, ``route_pair``'s ``PairRoutes`` and
  continental-scale shortest paths.  An ``EXACT`` pair's impact
  ``c_s + c_t`` is shared with no other query, so the engine keeps the
  answer of its target-stopped search rather than a full sweep.  Sized
  by ``sweep_cache_size``.
* results — finished aggregates (ratio results, per-source component
  arrays) keyed by the full query signature, so repeating an identical
  all-pairs evaluation is a dictionary lookup.

All three are risk-scoped: when the risk field changes (a new forecast
advisory hour, different gammas, a streaming event ingest) the engine
keeps the ``alpha == 0`` sweeps — those depend only on the topology —
through :meth:`LruCache.retain`, and clears the routes and the results.

:class:`EngineConfig` sizes the caches for one engine.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable

__all__ = ["EngineConfig", "LruCache", "CacheStats"]


@dataclass(frozen=True)
class EngineConfig:
    """Cache sizes for one :class:`~repro.engine.engine.RoutingEngine`.

    Kernel choice is not a knob: see the module constants in
    :mod:`repro.engine.engine`.

    Args:
        sweep_cache_size: max memoized sweeps per engine, and max
            memoized single-pair routes.
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


class LruCache:
    """LRU map with a :class:`CacheStats` of its traffic."""

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.max_entries = max_entries
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable):
        """The cached value, or None (counts a hit/miss either way)."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def peek(self, key: Hashable) -> bool:
        """True when cached, without touching the stats or LRU order."""
        return key in self._entries

    def put(self, key: Hashable, value) -> None:
        """Insert a value, evicting the least-recently-used past the cap."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def retain(self, predicate: Callable[[Hashable], bool]) -> int:
        """Keep entries whose key satisfies ``predicate``; drop the rest.

        The risk-invalidation hook (see the module docstring).  Returns
        the number of entries dropped.
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
        """Drop everything."""
        self.stats.invalidations += len(self._entries)
        self._entries.clear()
