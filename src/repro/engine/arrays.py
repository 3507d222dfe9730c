"""Flat CSR-style topology arrays.

The adjacency-map :class:`~repro.graph.core.Graph` is convenient to
build and mutate, but a routing engine that runs hundreds of sweeps over
the *same* topology wants the adjacency flattened once into parallel
arrays: integer node ids, an ``indptr``/``indices`` CSR layout, and the
edge weights alongside.  Sweeps then run over integer indices and list
slices instead of string-keyed dict lookups.

Row order follows ``graph.nodes()`` and, within a row, the graph's own
neighbour insertion order — so an array sweep relaxes edges in exactly
the order a Dijkstra over the graph's adjacency dicts would, with the
same deterministic tie-breaks.  Node index order is also the order
every engine aggregate sums its targets in.

The canonical storage is numpy; plain-list mirrors are kept for the
pure-Python heapq loop, where list indexing beats numpy scalar access.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..graph.core import Graph

__all__ = ["CsrGraph"]


class CsrGraph:
    """One graph frozen into flat arrays.

    Attributes:
        node_ids: node names in row order.
        index: name → row index.
        indptr / indices / weights: CSR adjacency (numpy arrays).
        indptr_list / indices_list / weights_list: list mirrors used by
            the sweep inner loop.
    """

    def __init__(self, graph: Graph[str]) -> None:
        node_ids: List[str] = list(graph.nodes())
        index: Dict[str, int] = {name: i for i, name in enumerate(node_ids)}
        indptr: List[int] = [0]
        indices: List[int] = []
        weights: List[float] = []
        wmap: Dict[Tuple[int, int], float] = {}
        for u in node_ids:
            ui = index[u]
            for v, w in graph.neighbors(u).items():
                vi = index[v]
                indices.append(vi)
                weights.append(w)
                wmap[(ui, vi)] = w
            indptr.append(len(indices))
        self.node_ids = node_ids
        self.index = index
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.indptr_list = indptr
        self.indices_list = indices
        self.weights_list = weights
        self._wmap = wmap

    @classmethod
    def from_arrays(
        cls,
        node_ids: Sequence[str],
        indptr: "np.ndarray",
        indices: "np.ndarray",
        weights: "np.ndarray",
    ) -> "CsrGraph":
        """Rebuild a CsrGraph directly from its CSR arrays.

        The array transport for shard processes (see
        :mod:`repro.engine.shm`): the numpy attributes are kept as the
        arrays passed in — shared-memory views stay zero-copy — while
        the list mirrors the pure-Python sweep loop indexes are
        materialised locally (they are per-process working state, like
        the ``index`` dict).  Row/entry order is preserved exactly, so
        sweeps over the rebuilt graph relax edges in the same order and
        reproduce the same tie-breaks as the original.
        """
        self = cls.__new__(cls)
        self.node_ids = list(node_ids)
        self.index = {name: i for i, name in enumerate(self.node_ids)}
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        indptr_list = [int(x) for x in indptr]
        indices_list = [int(x) for x in indices]
        weights_list = [float(x) for x in weights]
        self.indptr_list = indptr_list
        self.indices_list = indices_list
        self.weights_list = weights_list
        wmap: Dict[Tuple[int, int], float] = {}
        for u in range(len(self.node_ids)):
            for k in range(indptr_list[u], indptr_list[u + 1]):
                wmap[(u, indices_list[k])] = weights_list[k]
        self._wmap = wmap
        return self

    @property
    def node_count(self) -> int:
        """Number of nodes (CSR rows)."""
        return len(self.node_ids)

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of the directed CSR entry ``u -> v``.

        Raises:
            KeyError: if the edge is absent.
        """
        return self._wmap[(u, v)]

    def neighbor_values(self, values: List[float]) -> List[float]:
        """Gather a per-node array into per-CSR-entry order.

        ``out[k] == values[indices[k]]`` — used to pre-scatter node risks
        so the sweep loop reads one flat array instead of indirecting.
        """
        arr = np.asarray(values, dtype=np.float64)[self.indices]
        return arr.tolist()
