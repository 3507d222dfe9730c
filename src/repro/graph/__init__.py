"""Graph substrate: weighted graphs, shortest paths, connectivity."""

from .components import bridges, connected_components
from .core import EdgeExistsError, Graph, NodeNotFoundError
from .shortest_path import (
    NoPathError,
    all_pairs_shortest_paths,
    dijkstra,
    reconstruct_path,
)

__all__ = [
    "Graph",
    "EdgeExistsError",
    "NodeNotFoundError",
    "NoPathError",
    "dijkstra",
    "all_pairs_shortest_paths",
    "reconstruct_path",
    "connected_components",
    "bridges",
]
