"""The record of cuts and paths that greedy path selection reads.

build_tables runs every commodity's max flow on the original network and
decomposes each into paths, listed in commodity order.  A path's position
in that list is its identity: it names the path's color (color_name) and
indexes every per-path column.  The path itself holds its edges; their
capacities are read from the network.  Besides each commodity's min cut
and flow value, the tables record:

    edge_paths        per edge: positions of the paths using it, ascending
    path_color_count  per path: distinct colors over its edges

The tables are built once and never change: greedy_solve keeps its
residuals, statuses and live color counts to itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .maxflow import ColoredPath, Cut, max_flow
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
    """Built once by build_tables and never changed."""

    network: Network
    paths: tuple[ColoredPath, ...]
    edge_paths: tuple[tuple[int, ...], ...]
    path_color_count: tuple[int, ...]
    cuts: dict[int, Cut]
    commodity_value: dict[int, int]


def build_tables(net: Network) -> FlowTables:
    """Run per-commodity max flows and assemble the tables.

    Every path owns its color, so a path's color count is the number of
    paths sharing one of its edges, itself included.
    """
    paths: list[ColoredPath] = []
    cuts: dict[int, Cut] = {}
    commodity_value: dict[int, int] = {}
    for com in net.commodities:
        flow = max_flow(net, com.source, com.sink, commodity=com.index)
        cuts[com.index] = flow.min_cut
        commodity_value[com.index] = flow.value
        paths.extend(flow.paths)
    edge_paths: list[list[int]] = [[] for _ in net.edges]
    for position, path in enumerate(paths):
        for eid in path.edges:
            edge_paths[eid].append(position)
    color_count = tuple(
        len(set().union(*(edge_paths[eid] for eid in path.edges))) for path in paths
    )
    return FlowTables(
        network=net,
        paths=tuple(paths),
        edge_paths=tuple(map(tuple, edge_paths)),
        path_color_count=color_count,
        cuts=cuts,
        commodity_value=commodity_value,
    )
