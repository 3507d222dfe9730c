"""Persistent, content-fingerprinted cache for computed risk fields.

Every fresh process — a CLI run, a server cold start, a CI job — used to
pay the full KDE sweep to rebuild per-network ``o_h`` vectors and
Figure 4 grid fields it had computed many times before.  This module
stores those arrays on disk under **content-fingerprint keys**: the
catalog events, bandwidth, truncation, class weights, and the query
points/grid spec are all hashed into the key (via the
``engine/fingerprint`` conventions), so a cache entry can never be
served for different inputs — invalidation is automatic by
construction, and :meth:`RiskFieldCache.invalidate` / ``clear`` exist
for explicit eviction.

Layout and durability:

* every entry is one whole array in a single ``.npy`` file named
  ``<kind>-<key>.npy`` in one flat directory (``riskroute cache`` is
  small: one vector per network/model pair, one field per grid).  The
  ``o_h`` vector a streaming ingest recomputes is stored the same way,
  under the new model fingerprint, so a read is always one ``np.load``,
* writes go through a temp file in the same directory followed by
  ``os.replace``, so readers never observe a torn entry,
* a corrupted or unreadable file is treated as a miss, deleted
  best-effort, and recomputed — cache I/O can *never* fail a
  computation; all failures degrade to "compute it again".  Files of
  any other name in the directory (such as the patch files older
  versions chained off a parent entry) are never read.

The directory is resolved per call from ``RISKROUTE_CACHE_DIR`` (else
``$XDG_CACHE_HOME/riskroute``, else ``~/.cache/riskroute``);
``RISKROUTE_CACHE_DISABLE=1`` turns persistence off process-wide.
``RISKROUTE_CACHE_MAX_BYTES`` bounds the directory: after every write
the oldest-mtime entries are evicted until the total size fits
(counted in ``stats.evictions``).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from threading import Lock
from typing import Dict, Iterable, Optional, Union

import numpy as np

__all__ = [
    "RiskFieldCache",
    "default_field_cache",
    "resolve_cache",
    "content_key",
    "grid_field_key",
]

#: Bump to orphan every existing entry on a format change.
_FORMAT_VERSION = "v1"

CacheArg = Union["RiskFieldCache", str, None]


def _max_cache_bytes() -> Optional[int]:
    """The configured size bound, or None for unbounded (the default)."""
    raw = os.environ.get("RISKROUTE_CACHE_MAX_BYTES")
    if not raw:
        return None
    try:
        limit = int(raw)
    except ValueError:
        return None
    return limit if limit > 0 else None


def content_key(parts: Iterable[str]) -> str:
    """Combine fingerprint/tag strings into one cache key.

    Defers to :func:`repro.engine.fingerprint.combine_fingerprints`
    (lazily — the engine package imports the risk layer, which imports
    the stats layer) and folds in the cache format version, so a layout
    change orphans old entries instead of misreading them.
    """
    from ..engine.fingerprint import combine_fingerprints

    return combine_fingerprints([_FORMAT_VERSION, *parts])


def grid_field_key(kde_fingerprint: str, grid) -> str:
    """Key for an ``evaluate_grid`` field: the KDE identity x grid spec."""
    box = grid.box
    return content_key(
        [
            kde_fingerprint,
            float(box.south).hex(),
            float(box.north).hex(),
            float(box.west).hex(),
            float(box.east).hex(),
            str(grid.n_lat),
            str(grid.n_lon),
        ]
    )


class RiskFieldCache:
    """One flat directory of fingerprint-keyed ``.npy`` arrays.

    Args:
        cache_dir: directory for entries; created on first write.

    All operations are safe to call concurrently from multiple threads
    and processes: keys are content hashes (two writers for the same
    key write identical bytes) and writes are atomic renames.
    """

    def __init__(self, cache_dir: Union[str, Path]) -> None:
        self.cache_dir = Path(cache_dir)
        # Lazy: repro.engine's package init imports the risk layer,
        # which imports the stats layer.
        from ..engine.cache import CacheStats

        self.stats = CacheStats()
        self._lock = Lock()

    def _path(self, kind: str, key: str) -> Path:
        if not kind.isidentifier():
            raise ValueError(f"cache kind must be an identifier, got {kind!r}")
        return self.cache_dir / f"{kind}-{key}.npy"

    def get(self, kind: str, key: str) -> Optional["np.ndarray"]:
        """The stored array for ``(kind, key)``, or None on a miss.

        Unreadable entries (torn by a crash predating atomic writes,
        truncated disk, wrong format) are deleted and reported as a
        miss — never raised.
        """
        try:
            values = np.load(self._path(kind, key), allow_pickle=False)
        except FileNotFoundError:
            values = None
        except (OSError, ValueError, EOFError):
            values = None
            self.invalidate(kind, key)
        with self._lock:
            if values is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
        return values

    def put(self, kind: str, key: str, values: "np.ndarray") -> None:
        """Store ``values`` under ``(kind, key)``, atomically.

        Failures (read-only or full disk) are swallowed: the caller
        already has the computed array; persistence is best-effort.
        """
        path = self._path(kind, key)
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.cache_dir), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    np.save(handle, np.ascontiguousarray(values))
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            return
        self._enforce_budget()

    def _enforce_budget(self) -> None:
        """Evict oldest-mtime entries past ``RISKROUTE_CACHE_MAX_BYTES``.

        Best-effort, like every other cache write: an unreadable or
        already-removed file is simply skipped.
        """
        limit = _max_cache_bytes()
        if limit is None:
            return
        entries = []
        total = 0
        try:
            candidates = list(self.cache_dir.glob("*.npy"))
        except OSError:
            return
        for path in candidates:
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= limit:
            return
        entries.sort()
        for _, size, path in entries:
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            with self._lock:
                self.stats.evictions += 1
            if total <= limit:
                return

    def invalidate(self, kind: str, key: str) -> bool:
        """Drop one entry; True when something was removed."""
        try:
            self._path(kind, key).unlink()
        except OSError:
            return False
        with self._lock:
            self.stats.invalidations += 1
        return True

    def clear(self) -> int:
        """Drop every entry (all kinds); returns the count removed."""
        removed = 0
        try:
            entries = list(self.cache_dir.glob("*.npy"))
        except OSError:
            return 0
        for path in entries:
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        if removed:
            with self._lock:
                self.stats.invalidations += removed
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RiskFieldCache({str(self.cache_dir)!r})"


def _resolve_default_dir() -> Optional[Path]:
    if os.environ.get("RISKROUTE_CACHE_DISABLE"):
        return None
    configured = os.environ.get("RISKROUTE_CACHE_DIR")
    if configured:
        return Path(configured)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "riskroute"


#: One RiskFieldCache per resolved directory, so env-var changes (tests
#: pointing RISKROUTE_CACHE_DIR at a tmp dir) take effect immediately
#: while repeated calls in a stable process share hit/miss stats.
_INSTANCES: Dict[Path, RiskFieldCache] = {}
_INSTANCES_LOCK = Lock()


def default_field_cache() -> Optional[RiskFieldCache]:
    """The process-wide cache for the configured directory, or None
    when ``RISKROUTE_CACHE_DISABLE`` is set."""
    directory = _resolve_default_dir()
    if directory is None:
        return None
    with _INSTANCES_LOCK:
        cache = _INSTANCES.get(directory)
        if cache is None:
            cache = RiskFieldCache(directory)
            _INSTANCES[directory] = cache
        return cache


def resolve_cache(cache: CacheArg) -> Optional[RiskFieldCache]:
    """Normalise a ``cache=`` argument.

    ``"default"`` resolves the process-wide cache, ``None`` disables
    persistence, and a :class:`RiskFieldCache` is passed through.
    """
    if cache is None:
        return None
    if cache == "default":
        return default_field_cache()
    if isinstance(cache, RiskFieldCache):
        return cache
    raise TypeError(
        f"cache must be a RiskFieldCache, 'default', or None; got {cache!r}"
    )
