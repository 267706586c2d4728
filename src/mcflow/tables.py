"""The five bookkeeping tables that drive greedy path selection.

build_tables runs every commodity's max flow on the original network,
decomposes each into colored paths, and records:

    edge_colors       per edge: color ids of the non-discarded paths using it
    edge_residual     per edge: capacity not yet claimed by shipments
    path_record       per path: its edges with their original capacities
    path_bottleneck   per path: minimum residual along its edges (live)
    path_color_count  per path: distinct colors over its edges

Two indexes ride along: path_position maps a path's (commodity, ordinal)
key to its position, and edge_paths lists, per edge, the positions of every
path using it (whatever its status), in ascending order.

Shipping a path (apply_shipment) subtracts its current bottleneck from
every edge it uses and marks it used.  Only residuals on those edges
change, so only paths sharing them are examined: active ones left with a
zero-residual edge are discarded and their colors stripped from
edge_colors, bottlenecks are recomputed for the paths sharing the shipped
edges, and color counts for the paths sharing an edge with a newly
discarded path.  Every other entry is already current.  path_record is
written once and never rewritten.
"""

from __future__ import annotations

from dataclasses import dataclass

from .maxflow import (
    ACTIVE,
    DISCARDED,
    USED,
    Color,
    ColoredPath,
    Cut,
    decompose_cut_paths,
    max_flow,
)
from .netmodel import Network, validate_network

__all__ = [
    "COLOR_NAMES",
    "FlowTables",
    "apply_shipment",
    "audit_tables",
    "build_tables",
]

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


def _color_name(position: int) -> str:
    if position < len(COLOR_NAMES):
        return COLOR_NAMES[position]
    return f"Color{position + 1}"


@dataclass
class FlowTables:
    """Single-owner mutable bundle; all mutation goes through apply_shipment."""

    network: Network
    paths: list[ColoredPath]
    edge_colors: list[set[int]]
    edge_residual: list[int]
    path_record: list[tuple[tuple[int, int], ...]]
    path_bottleneck: list[int]
    path_color_count: list[int]
    cuts: dict[int, Cut]
    commodity_value: dict[int, int]
    path_position: dict[tuple[int, int], int]
    edge_paths: list[list[int]]

    def index_of(self, path: ColoredPath) -> int:
        position = self.path_position.get(path.key)
        if position is None:
            raise ValueError(f"path {path.label} not in tables")
        return position


def _bottleneck(tables: FlowTables, position: int) -> int:
    return min(tables.edge_residual[eid] for eid in tables.paths[position].edges)


def _color_count(tables: FlowTables, position: int) -> int:
    edges = tables.paths[position].edges
    return len(set().union(*(tables.edge_colors[eid] for eid in edges)))


def build_tables(net: Network) -> FlowTables:
    """Run per-commodity max flows and assemble the tables.

    Every path starts active; colors are assigned in path order from
    COLOR_NAMES.  Raises ValueError when the network fails validation.
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
    for position, path in enumerate(paths):
        path.color = Color(position + 1, path.commodity, path.ordinal, _color_name(position))
    edge_colors: list[set[int]] = [set() for _ in net.edges]
    edge_paths: list[list[int]] = [[] for _ in net.edges]
    for position, path in enumerate(paths):
        for eid in dict.fromkeys(path.edges):
            edge_colors[eid].add(path.color.id)
            edge_paths[eid].append(position)
    tables = FlowTables(
        network=net,
        paths=paths,
        edge_colors=edge_colors,
        edge_residual=[e.capacity for e in net.edges],
        path_record=[
            tuple((eid, net.edges[eid].capacity) for eid in path.edges)
            for path in paths
        ],
        path_bottleneck=[],
        path_color_count=[],
        cuts=cuts,
        commodity_value=commodity_value,
        path_position={path.key: position for position, path in enumerate(paths)},
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
    """apply_shipment for the path at `position`, with the same checks.

    Returns the positions of the paths it discarded and of the paths whose
    color count fell, both ascending.
    """
    target = tables.paths[position]
    if target.status != ACTIVE:
        raise ValueError(f"path {target.label} is not active")
    bottleneck = tables.path_bottleneck[position]
    if amount <= 0 or amount != bottleneck:
        raise ValueError(
            f"shipment of {amount} on {target.label} differs from its bottleneck {bottleneck}"
        )
    residual = tables.edge_residual
    for eid in target.edges:
        residual[eid] -= amount
    target.status = USED
    # Active paths have no zero-residual edge before this shipment, and
    # only the shipped edges changed, so only paths sharing them can drop.
    sharing = _paths_on(tables, target.edges)
    discarded: list[int] = []
    for candidate_position in sharing:
        candidate = tables.paths[candidate_position]
        if candidate.status != ACTIVE:
            continue
        if any(residual[eid] == 0 for eid in candidate.edges):
            candidate.status = DISCARDED
            discarded.append(candidate_position)
            assert candidate.color is not None
            for eid in candidate.edges:
                tables.edge_colors[eid].discard(candidate.color.id)
    for p in sharing:
        tables.path_bottleneck[p] = _bottleneck(tables, p)
    recounted: list[int] = []
    for p in _paths_on(tables, (eid for d in discarded for eid in tables.paths[d].edges)):
        count = _color_count(tables, p)
        if count != tables.path_color_count[p]:
            tables.path_color_count[p] = count
            recounted.append(p)
    return discarded, recounted


def apply_shipment(tables: FlowTables, path: ColoredPath, amount: int) -> FlowTables:
    """Ship `amount` (the path's current bottleneck) and update the tables.

    The path must be active and `amount` must equal its live bottleneck,
    else ValueError.  The shipped path is marked used and keeps its colors.
    Any active path sharing one of its edges that is left with a
    zero-residual edge is discarded and its color removed from edge_colors
    everywhere.  Bottlenecks are recomputed for every path sharing a
    shipped edge and color counts for every path sharing an edge with a
    discarded one; all other entries are unaffected, so the tables audit
    clean afterwards.
    """
    ship_position(tables, tables.index_of(path), amount)
    return tables


def audit_tables(tables: FlowTables) -> list[str]:
    """Cross-check every table against its defining rule; [] when clean."""
    problems: list[str] = []
    net = tables.network
    expected_colors: list[set[int]] = [set() for _ in net.edges]
    for path in tables.paths:
        if path.status != DISCARDED and path.color is not None:
            for eid in path.edges:
                expected_colors[eid].add(path.color.id)
    for edge in net.edges:
        if tables.edge_colors[edge.id] != expected_colors[edge.id]:
            problems.append(f"edge {edge.id}: color set out of sync")
        residual = tables.edge_residual[edge.id]
        if not 0 <= residual <= edge.capacity:
            problems.append(
                f"edge {edge.id}: residual {residual} outside [0, {edge.capacity}]"
            )
    seen_colors: set[int] = set()
    for position, path in enumerate(tables.paths):
        if path.color is None or path.color.id in seen_colors:
            problems.append(f"{path.label}: color missing or reused")
            continue
        seen_colors.add(path.color.id)
        bottleneck = min(tables.edge_residual[eid] for eid in path.edges)
        if tables.path_bottleneck[position] != bottleneck:
            problems.append(f"{path.label}: bottleneck column out of sync")
        union: set[int] = set().union(*(tables.edge_colors[eid] for eid in path.edges))
        if tables.path_color_count[position] != len(union):
            problems.append(f"{path.label}: color count column out of sync")
        if path.status == ACTIVE and path.color.id not in union:
            problems.append(f"{path.label}: active path lost its own color")
    return problems
