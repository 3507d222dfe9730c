"""Shared-memory transport for a topology across shard processes.

A sharded daemon (:mod:`repro.server.shards`) runs one
:class:`~repro.engine.engine.RoutingEngine` per shard process over the
*same* frozen topology.  Pickling the CSR arrays into every child would
copy them N times; instead the parent exports them once into named
:class:`multiprocessing.shared_memory` segments and hands children a
small picklable :class:`ShmManifest` (node ids + segment names, dtypes
and shapes).  Each child maps the segments and rebuilds its engine
directly over the views — the numpy arrays in the child are zero-copy
windows onto the parent's pages — binds its own risk model, and hands
that engine to its :class:`~repro.session.RoutingSession`.

What is shared vs. local:

* **Shared (zero-copy)**: the CSR adjacency, three arrays (``indptr``
  / ``indices`` / ``weights``) — the topology, which no write changes.
* **Local (per child)**: the risk field the child binds from its model
  (as every engine does), the PoP coordinates its session sets, the
  name→index dict, the list mirrors the pure-Python sweep inner loop
  indexes (see :meth:`~repro.engine.arrays.CsrGraph.from_arrays` —
  per-process working state by design), and all sweep/route/result
  caches.

Lifecycle: the parent's :class:`SharedEngineState` owns the segments —
it alone unlinks them (:meth:`SharedEngineState.close`).  Children
attach with resource-tracker registration suppressed, so a dying child
cannot unlink memory its siblings still map and cannot corrupt the
parent's tracker bookkeeping (the tracker assumes attach == own, which
is wrong here; spawn children share the parent's tracker process).
Risk-field writes never touch shared memory: the parent broadcasts the
new field over each shard's pipe behind a fingerprint barrier (see
``repro.server.shards``), and each child rebinds its model locally.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from .arrays import CsrGraph
from .cache import EngineConfig
from .engine import RoutingEngine

__all__ = ["ShmManifest", "SharedEngineState", "attach_engine"]


@dataclass(frozen=True)
class ShmManifest:
    """Everything a child needs to map and rebuild an engine's topology.

    Picklable by construction: segment *names*, not handles.
    """

    node_ids: Tuple[str, ...]
    #: name -> (shared-memory segment name, dtype string, shape)
    segments: Dict[str, Tuple[str, str, Tuple[int, ...]]] = field(
        default_factory=dict
    )


class SharedEngineState:
    """Parent-side owner of one engine's shared-memory segments."""

    def __init__(
        self,
        manifest: ShmManifest,
        segments: List[shared_memory.SharedMemory],
    ) -> None:
        self.manifest = manifest
        self._segments = segments
        # Unlink guard against abnormal parent death: /dev/shm segments
        # outlive their creator, so a parent that dies without close()
        # (unhandled exception, sys.exit mid-serve) would leak pages
        # sized like the whole topology until reboot.  weakref.finalize
        # fires on garbage collection *and* at interpreter exit
        # (atexit), unlinking whatever close() has not; the callback
        # must not hold ``self`` or the finalizer would keep the object
        # alive forever.  Unlinking also unregisters from the resource
        # tracker, so no "leaked shared_memory" warnings either.
        self._finalizer = weakref.finalize(self, _release_all, segments)

    @classmethod
    def export(cls, engine: RoutingEngine) -> "SharedEngineState":
        """Copy an engine's three CSR arrays into segments.

        One copy total (parent heap → shared pages); every shard then
        maps the same pages.
        """
        arrays: Dict[str, np.ndarray] = {
            "indptr": engine._csr.indptr,
            "indices": engine._csr.indices,
            "weights": engine._csr.weights,
        }
        segments: List[shared_memory.SharedMemory] = []
        entries: Dict[str, Tuple[str, str, Tuple[int, ...]]] = {}
        try:
            for name, array in arrays.items():
                array = np.ascontiguousarray(array)
                segment = shared_memory.SharedMemory(
                    create=True, size=max(1, array.nbytes)
                )
                view = np.ndarray(
                    array.shape, dtype=array.dtype, buffer=segment.buf
                )
                view[...] = array
                segments.append(segment)
                entries[name] = (
                    segment.name, str(array.dtype), tuple(array.shape)
                )
        except BaseException:
            for segment in segments:
                _release(segment, unlink=True)
            raise
        manifest = ShmManifest(
            node_ids=tuple(engine._csr.node_ids), segments=entries
        )
        return cls(manifest, segments)

    def close(self) -> None:
        """Unmap and unlink every segment (idempotent).

        Only the parent calls this; children merely close their own
        mappings on exit.
        """
        self._finalizer.detach()  # clean path: no second unlink pass
        segments, self._segments = self._segments, []
        _release_all(segments)

    def __enter__(self) -> "SharedEngineState":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _release_all(segments: List[shared_memory.SharedMemory]) -> None:
    """Unmap + unlink a segment list (module-level so the dirty-exit
    finalizer can run without resurrecting its owner)."""
    for segment in segments:
        _release(segment, unlink=True)


def _release(segment: shared_memory.SharedMemory, unlink: bool) -> None:
    try:
        segment.close()
    except OSError:
        pass
    if unlink:
        try:
            segment.unlink()
        except (FileNotFoundError, OSError):
            pass


def _attach_array(
    entry: Tuple[str, str, Tuple[int, ...]]
) -> Tuple[np.ndarray, shared_memory.SharedMemory]:
    name, dtype, shape = entry
    # Attaching registers the segment with the resource tracker as if
    # the child owned it — and spawn children share the *parent's*
    # tracker process, so either the child's exit-time unlink or an
    # explicit unregister here would clobber the parent's bookkeeping
    # for memory the parent still owns.  Suppress registration for the
    # duration of the attach instead (``track=False`` is 3.13+).
    try:
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register

        def _no_register(res_name, rtype):
            if rtype != "shared_memory":  # pragma: no cover
                original_register(res_name, rtype)

        resource_tracker.register = _no_register
        try:
            segment = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
    except ImportError:  # pragma: no cover - tracker internals vary
        segment = shared_memory.SharedMemory(name=name)
    view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)
    return view, segment


def attach_engine(
    manifest: ShmManifest,
    model,
    config: Optional[EngineConfig] = None,
) -> RoutingEngine:
    """Child-side: map the segments and rebuild the engine over them.

    The CSR arrays stay zero-copy views; the engine binds ``model`` as
    any engine does, and the caller passes it to the
    :class:`~repro.session.RoutingSession` it serves from
    (:mod:`repro.server.shards` pings each shard for its risk
    fingerprint after warm-up, which must equal the parent's).
    """
    views: Dict[str, np.ndarray] = {}
    segments: List[shared_memory.SharedMemory] = []
    try:
        for name in manifest.segments:
            view, segment = _attach_array(manifest.segments[name])
            views[name] = view
            segments.append(segment)
    except BaseException:
        for segment in segments:
            _release(segment, unlink=False)
        raise
    csr = CsrGraph.from_arrays(
        manifest.node_ids,
        views["indptr"],
        views["indices"],
        views["weights"],
    )
    engine = RoutingEngine.from_csr(csr, model, config)
    # Keep the mappings alive exactly as long as the engine: the numpy
    # views borrow the segments' buffers.
    engine._shm_segments = segments
    return engine
