"""The bookkeeping tables that drive greedy path selection.

build_tables runs every commodity's max flow on the original network and
decomposes each into paths, listed in commodity order.  A path's position
in that list is its identity: it names the path's color (color_name) and
indexes every per-path column.  The path itself holds its edges; their
capacities are read from the network.  The tables record:

    edge_colors       per edge: positions of the non-discarded paths using it
    edge_residual     per edge: capacity not yet claimed by shipments
    path_bottleneck   per path: minimum residual along its edges (live)
    path_color_count  per path: distinct colors over its edges
    path_status       per path: ACTIVE, USED or DISCARDED

edge_paths lists, per edge, the positions of every path using it
(whatever its status), in ascending order.

Shipping a path (ship_position, the only mutation) subtracts its current
bottleneck from every edge it uses and marks it used.  Only residuals on
those edges change, so only paths sharing them are examined: active ones
left with a zero-residual edge are discarded and their colors stripped
from edge_colors, bottlenecks are recomputed for the paths sharing the
shipped edges, and color counts for the paths sharing an edge with a
newly discarded path.  Every other entry is already current.
"""

from __future__ import annotations

from dataclasses import dataclass

from .maxflow import ColoredPath, Cut, decompose_cut_paths, max_flow
from .netmodel import Network, validate_network

__all__ = [
    "ACTIVE",
    "COLOR_NAMES",
    "DISCARDED",
    "FlowTables",
    "USED",
    "build_tables",
    "color_name",
]

ACTIVE = "active"
USED = "used"
DISCARDED = "discarded"

COLOR_NAMES = (
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
    if position < len(COLOR_NAMES):
        return COLOR_NAMES[position]
    return f"Color{position + 1}"


@dataclass
class FlowTables:
    """Single-owner mutable bundle; ship_position is its only mutation."""

    network: Network
    paths: list[ColoredPath]
    edge_colors: list[set[int]]
    edge_residual: list[int]
    path_bottleneck: list[int]
    path_color_count: list[int]
    path_status: list[str]
    cuts: dict[int, Cut]
    commodity_value: dict[int, int]
    edge_paths: list[list[int]]


def _bottleneck(tables: FlowTables, position: int) -> int:
    return min(tables.edge_residual[eid] for eid in tables.paths[position].edges)


def _color_count(tables: FlowTables, position: int) -> int:
    edges = tables.paths[position].edges
    return len(set().union(*(tables.edge_colors[eid] for eid in edges)))


def build_tables(net: Network) -> FlowTables:
    """Run per-commodity max flows and assemble the tables.

    Every path starts active and owns its color.  Raises ValueError when
    the network fails validation.
    """
    problems = validate_network(net)
    if problems:
        raise ValueError("invalid network: " + "; ".join(problems))
    paths: list[ColoredPath] = []
    cuts: dict[int, Cut] = {}
    commodity_value: dict[int, int] = {}
    for com in net.commodities:
        flow = max_flow(net, com.source, com.sink, commodity=com.index)
        assert flow.min_cut is not None
        cuts[com.index] = flow.min_cut
        commodity_value[com.index] = flow.value
        paths.extend(decompose_cut_paths(net, flow))
    edge_paths: list[list[int]] = [[] for _ in net.edges]
    for position, path in enumerate(paths):
        for eid in dict.fromkeys(path.edges):
            edge_paths[eid].append(position)
    tables = FlowTables(
        network=net,
        paths=paths,
        edge_colors=[set(positions) for positions in edge_paths],
        edge_residual=[e.capacity for e in net.edges],
        path_bottleneck=[],
        path_color_count=[],
        path_status=[ACTIVE] * len(paths),
        cuts=cuts,
        commodity_value=commodity_value,
        edge_paths=edge_paths,
    )
    tables.path_bottleneck = [_bottleneck(tables, p) for p in range(len(paths))]
    tables.path_color_count = [_color_count(tables, p) for p in range(len(paths))]
    return tables


def _paths_on(tables: FlowTables, edges) -> list[int]:
    """Positions of every path using one of `edges`, ascending."""
    return sorted({p for eid in edges for p in tables.edge_paths[eid]})


def ship_position(
    tables: FlowTables, position: int, amount: int
) -> tuple[list[int], list[int]]:
    """Ship `amount` on the path at `position` and update the tables.

    The path must be active and `amount` must equal its live bottleneck,
    else ValueError.  The shipped path is marked used and keeps its color.
    Every active path sharing one of its edges that is left with a
    zero-residual edge is discarded and its color removed from edge_colors
    everywhere.  Bottlenecks are recomputed for every path sharing a
    shipped edge and color counts for every path sharing an edge with a
    discarded one; all other entries are unaffected.

    Returns the positions of the paths it discarded and of the paths whose
    color count fell, both ascending.
    """
    target = tables.paths[position]
    status = tables.path_status
    if status[position] != ACTIVE:
        raise ValueError(f"path {target.label} is not active")
    bottleneck = tables.path_bottleneck[position]
    if amount <= 0 or amount != bottleneck:
        raise ValueError(
            f"shipment of {amount} on {target.label} differs from its bottleneck {bottleneck}"
        )
    residual = tables.edge_residual
    for eid in target.edges:
        residual[eid] -= amount
    status[position] = USED
    # Active paths have no zero-residual edge before this shipment, and
    # only the shipped edges changed, so only paths sharing them can drop.
    sharing = _paths_on(tables, target.edges)
    discarded: list[int] = []
    for p in sharing:
        edges = tables.paths[p].edges
        if status[p] == ACTIVE and any(residual[eid] == 0 for eid in edges):
            status[p] = DISCARDED
            discarded.append(p)
            for eid in edges:
                tables.edge_colors[eid].discard(p)
    for p in sharing:
        tables.path_bottleneck[p] = _bottleneck(tables, p)
    recounted: list[int] = []
    for p in _paths_on(tables, (eid for d in discarded for eid in tables.paths[d].edges)):
        count = _color_count(tables, p)
        if count != tables.path_color_count[p]:
            tables.path_color_count[p] = count
            recounted.append(p)
    return discarded, recounted
