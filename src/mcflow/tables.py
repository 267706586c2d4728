"""The record of cuts and paths that greedy path selection reads.

build_tables runs every commodity's max flow on the original network and
keeps each one, in commodity order, with its value, min cut and paths.
The paths of all the flows, listed in that order, are the tables' paths.
A path's position in that list is its identity: it names the path's color
(color_name) and indexes every per-path column.  The path itself holds its
edges; their capacities are read from the network.  Besides the flows and
the paths, the tables record:

    edge_paths        by edge id: positions of the paths using it, ascending;
                      an edge that no path uses has no entry
    path_color_count  per path: distinct colors over its edges

The tables are built once and never change: greedy_solve keeps its
residuals, statuses and live color counts to itself.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .maxflow import ColoredPath, FlowState, max_flow
from .netmodel import Network

__all__ = ["FlowTables", "build_tables", "color_name"]

_COLOR_NAMES = (
    "Violet",
    "Red",
    "Green",
    "Yellow",
    "Blue",
    "Orange",
    "Cyan",
    "Magenta",
    "Brown",
    "Pink",
    "Olive",
    "Teal",
    "Navy",
    "Maroon",
    "Coral",
    "Indigo",
)


def color_name(position: int) -> str:
    """Name of the color of the path at `position` in FlowTables.paths."""
    if position < len(_COLOR_NAMES):
        return _COLOR_NAMES[position]
    return f"Color{position + 1}"


@dataclass(frozen=True)
class FlowTables:
    """Built once by build_tables and never changed; `flows[k]` is the max
    flow of commodity k + 1."""

    network: Network
    flows: tuple[FlowState, ...]
    paths: tuple[ColoredPath, ...]
    edge_paths: dict[int, tuple[int, ...]]
    path_color_count: tuple[int, ...]


def build_tables(net: Network) -> FlowTables:
    """Run per-commodity max flows and assemble the tables.

    Every path owns its color, so a path's color count is the number of
    paths sharing one of its edges, itself included.
    """
    flows = tuple(max_flow(net, com) for com in net.commodities)
    paths = tuple(path for flow in flows for path in flow.paths)
    edge_paths: defaultdict[int, list[int]] = defaultdict(list)
    for position, path in enumerate(paths):
        for eid in path.edges:
            edge_paths[eid].append(position)
    color_count = tuple(
        len(set().union(*(edge_paths[eid] for eid in path.edges))) for path in paths
    )
    cells = {eid: tuple(positions) for eid, positions in edge_paths.items()}
    return FlowTables(net, flows, paths, cells, color_count)
