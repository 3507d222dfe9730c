"""Graph substrate: weighted graphs, shortest paths, connectivity."""

from .components import (
    bridges,
    connected_components,
    is_connected,
    largest_component,
)
from .core import EdgeExistsError, Graph, NodeNotFoundError
from .shortest_path import (
    NoPathError,
    all_pairs_shortest_paths,
    dijkstra,
    reconstruct_path,
    shortest_path,
    shortest_path_length,
)

__all__ = [
    "Graph",
    "EdgeExistsError",
    "NodeNotFoundError",
    "NoPathError",
    "dijkstra",
    "shortest_path",
    "shortest_path_length",
    "all_pairs_shortest_paths",
    "reconstruct_path",
    "connected_components",
    "is_connected",
    "largest_component",
    "bridges",
]
