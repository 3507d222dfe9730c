"""Stable fingerprints for cache keying.

The :class:`~repro.engine.engine.RoutingEngine` memoizes per-source
Dijkstra sweeps.  A sweep's result is fully determined by

* the **topology** — node set, adjacency, and edge weights — and
* the **risk field** — the gamma-scaled per-node risk charged on entry.

An engine freezes its topology at construction, so only the risk field
is hashed: the risk fingerprint decides whether cached risk-weighted
sweeps survive a model swap (a new forecast advisory changes the risk
field; shortest-path sweeps at ``alpha == 0`` never depend on it and
are always kept).  A topology change is seen by the graph's owner
instead, through :attr:`repro.graph.core.Graph.version`.

Floats are hashed via ``float.hex`` — exact, platform-stable, and with
no false merges from decimal rounding.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # risk.model imports back into the engine package
    from ..risk.model import RiskModel

__all__ = [
    "risk_fingerprint",
    "array_fingerprint",
    "combine_fingerprints",
]


def _digest(parts: Iterable[str]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def combine_fingerprints(parts: Iterable[str]) -> str:
    """Hash a sequence of fingerprint/tag strings into one key.

    The same ``\\x00``-separated blake2b scheme as every other key in
    this module, so composite keys (the KDE and historical-model
    fingerprints, the ``o_h`` memo key) stay collision-resistant and
    platform-stable.
    """
    return _digest(parts)


def array_fingerprint(arr) -> str:
    """Content hash of a NumPy array: dtype, shape, and raw bytes.

    Used to key the in-process ``o_h`` memo and the streaming KDE's
    tracked point sets by the exact event catalog and query-point
    contents — ~10ms for the full 176k-event corpus, negligible next
    to the sweep it guards.
    """
    import numpy as np

    arr = np.ascontiguousarray(arr)
    h = hashlib.blake2b(digest_size=16)
    h.update(str(arr.dtype).encode("utf-8"))
    h.update(b"\x00")
    h.update(str(arr.shape).encode("utf-8"))
    h.update(b"\x00")
    h.update(arr.tobytes())
    return h.hexdigest()


def risk_fingerprint(model: RiskModel, node_ids: Sequence[str]) -> str:
    """Hash of the effective risk state over ``node_ids``.

    Covers the gamma-scaled entry risk (``node_risk`` folds in
    ``gamma_h``/``gamma_f`` and the forecast field, so any advisory
    update or gamma change shows up) and the population share (which
    drives every pair impact ``alpha_ij``).
    """
    return _digest(
        f"r:{node}|{float(model.node_risk(node)).hex()}"
        f"|{float(model.share(node)).hex()}"
        for node in node_ids
    )
