"""Greedy path selection by minimum color count, plus feasibility checks
and capacity-based upper bounds on the joint flow.

The selection rule: a path whose edges carry only its own color competes
with nobody, so it ships first; after that the active path with the fewest
distinct colors ships next, always at its current residual bottleneck.
Ties break on (commodity, ordinal).  The shipped total is a lower bound on
the joint optimum; upper_bounds reports two capacity relaxations next to it,
and intersection_terms streams the subset terms behind the second.
export_dot draws a network as Graphviz DOT text, with an assignment's flow
on its edges once validate_assignment has checked the flow's references.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from .maxflow import ColoredPath, Cut
from .netmodel import Network
from .tables import FlowTables

__all__ = [
    "Assignment",
    "UpperBounds",
    "export_dot",
    "greedy_solve",
    "intersection_terms",
    "upper_bounds",
    "validate_assignment",
]


@dataclass
class Assignment:
    """Result of a greedy run: shipments in order plus derived totals.

    edge_flow maps (commodity index, edge id) to shipped units; only
    positive entries are stored.
    """

    shipments: list[tuple[ColoredPath, int]]
    discarded: list[ColoredPath]
    edge_flow: dict[tuple[int, int], int]
    per_commodity_value: dict[int, int]
    total_value: int


def greedy_solve(tables: FlowTables) -> Assignment:
    """Ship paths in minimum-color-count order until none stay active.

    Reads the tables and changes nothing in them: residuals, statuses and
    live color counts are its own.  Shipping a path moves its smallest
    residual along every one of its edges, so the result is feasible by
    construction.  A shipped path keeps its color; a discarded one takes
    its color off all its edges at once.  Two rules keep each step local:

    1. Before a shipment no active path has a zero-residual edge, so the
       paths it discards are exactly the active ones on an edge it emptied.
    2. An active path sharing one or more edges with a discarded path
       loses exactly that path's color, so its count falls by one.

    The next path comes off a heap keyed by (color count, position);
    positions run in (commodity, ordinal) order, which breaks the ties.  A
    path whose count changes is pushed again; counts only ever fall, so
    its fresher, smaller key pops first and ships the path.  Every entry
    popped for a still active path therefore carries its current count,
    and the rest are skipped.
    """
    paths = tables.paths
    edge_paths = tables.edge_paths
    residual = list(tables.network.arcs.capacity)
    active = [True] * len(paths)
    counts = list(tables.path_color_count)
    shipments: list[tuple[ColoredPath, int]] = []
    discarded: list[ColoredPath] = []
    edge_flow: dict[tuple[int, int], int] = {}
    per_commodity = {com.index: 0 for com in tables.network.commodities}
    heap = [(count, position) for position, count in enumerate(counts)]
    heapq.heapify(heap)
    while heap:
        count, position = heapq.heappop(heap)
        if not active[position]:
            continue
        assert count == counts[position], "stale heap entry for an active path"
        choice = paths[position]
        amount = min(residual[eid] for eid in choice.edges)
        active[position] = False
        shipments.append((choice, amount))
        per_commodity[choice.commodity] += amount
        for eid in choice.edges:
            residual[eid] -= amount
            key = (choice.commodity, eid)
            edge_flow[key] = edge_flow.get(key, 0) + amount
        emptied = [eid for eid in choice.edges if not residual[eid]]
        dropped = sorted({p for eid in emptied for p in edge_paths[eid] if active[p]})
        for p in dropped:
            active[p] = False
            discarded.append(paths[p])
        changed = set()
        for d in dropped:
            for q in {q for eid in paths[d].edges for q in edge_paths[eid]}:
                if active[q]:
                    counts[q] -= 1
                    changed.add(q)
        for q in changed:
            heapq.heappush(heap, (counts[q], q))
    total = sum(amount for _, amount in shipments)
    return Assignment(shipments, discarded, edge_flow, per_commodity, total)


def intersection_terms(cuts: Sequence[Cut]) -> Iterator[tuple[tuple[int, ...], int]]:
    """Shared cut capacity of every subset of two or more cuts, one term at
    a time: yields (1-based subset, capacity of the edges in every cut of
    it) in `itertools.combinations` order, pairs first.

    With the cut capacities these are the terms of the inclusion-exclusion
    sum, singletons added, pairs subtracted, triples added and so on, that
    upper_bounds collapses to the capacity of the union of the cut edges.
    There are 2^K - K - 1 of them for K cuts; only the current one is held,
    and a subset's intersection stops once it is empty.
    """
    # Keyed by 1-based position, so combinations of the keys are the subsets.
    edge_sets = {
        position: frozenset(e.id for e in cut.cut_edges)
        for position, cut in enumerate(cuts, start=1)
    }
    capacity = {edge.id: edge.capacity for cut in cuts for edge in cut.cut_edges}
    for size in range(2, len(cuts) + 1):
        for subset in combinations(edge_sets, size):
            shared = edge_sets[subset[0]]
            for position in subset[1:]:
                if not shared:
                    break
                shared = shared & edge_sets[position]
            yield subset, sum(capacity[eid] for eid in shared)


def validate_assignment(net: Network, assignment: Assignment) -> list[str]:
    """Check capacity sharing, per-commodity conservation, and totals.

    Returns one message per violation; raises ValueError at the first
    edge_flow entry naming a commodity or edge the network does not have.
    One pass over edge_flow sums the edges it touches and, per commodity,
    a balance (inflow minus outflow) per node; an untouched edge carries 0,
    which its capacity allows.  So the check costs O(K + flow entries), and
    more only to word a conservation violation.
    """
    edges = net.edges
    balances: dict[int, dict[str, int]] = {com.index: {} for com in net.commodities}
    used: dict[int, int] = {}
    violations: list[str] = []
    for (commodity_index, eid), units in assignment.edge_flow.items():
        balance = balances.get(commodity_index)
        if balance is None:
            raise ValueError(f"assignment references unknown commodity {commodity_index}")
        if not 0 <= eid < len(edges):
            raise ValueError(f"assignment references unknown edge {eid}")
        if units < 0:
            violations.append(f"commodity {commodity_index}, edge {eid}: negative flow {units}")
        edge = edges[eid]
        used[eid] = used.get(eid, 0) + units
        balance[edge.head] = balance.get(edge.head, 0) + units
        balance[edge.tail] = balance.get(edge.tail, 0) - units
    for eid in sorted(eid for eid, total in used.items() if total > edges[eid].capacity):
        edge = edges[eid]
        violations.append(
            f"edge {eid} ({edge.tail}->{edge.head}):"
            f" total flow {used[eid]} exceeds capacity {edge.capacity}"
        )
    for com in net.commodities:
        balance = balances[com.index]
        net_out = -balance.pop(com.source, 0)
        balance.pop(com.sink, None)
        if any(balance.values()):  # a node other than the ends is unbalanced
            node_in = {node: 0 for node, amount in balance.items() if amount}
            for (commodity_index, eid), units in assignment.edge_flow.items():
                if commodity_index == com.index and edges[eid].head in node_in:
                    node_in[edges[eid].head] += units
            violations.extend(
                f"commodity {com.index}, node {node}: inflow {node_in[node]}"
                f" != outflow {node_in[node] - balance[node]}"
                for node in net.nodes if node in node_in
            )
        declared = assignment.per_commodity_value.get(com.index, 0)
        if net_out != declared:
            violations.append(
                f"commodity {com.index}: declared value {declared}"
                f" != net source outflow {net_out}"
            )
    shipped = sum(amount for _, amount in assignment.shipments)
    if assignment.total_value != shipped:
        violations.append(f"total {assignment.total_value} != shipment sum {shipped}")
    split = sum(assignment.per_commodity_value.values())
    if assignment.total_value != split:
        violations.append(f"total {assignment.total_value} != per-commodity sum {split}")
    return violations


_DOT_COLORS = (
    "blue",
    "red",
    "forestgreen",
    "darkorange",
    "purple",
    "brown",
    "teal",
    "magenta",
)


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _commodity_color(index: int) -> str:
    return _DOT_COLORS[(index - 1) % len(_DOT_COLORS)]


def export_dot(net: Network, assignment: Assignment | None = None) -> str:
    """Render the network as Graphviz DOT text.

    Without an assignment every edge is labeled with its capacity.  With
    one, edges are labeled "flow/capacity" (flow summed over commodities)
    and colored by the commodities whose flow they carry; idle edges are
    gray.  The assignment goes through validate_assignment first, so it
    raises ValueError at the first edge_flow entry naming a commodity or
    edge the network does not have; an infeasible flow is drawn as it is.
    """
    carried: dict[int, list[tuple[int, int]]] = {}
    if assignment is not None:
        validate_assignment(net, assignment)  # raises on a bad reference; violations are drawn
        # Sorted, each edge lists its commodities in index order, as the
        # commodity lines above do.
        for (commodity_index, eid), units in sorted(assignment.edge_flow.items()):
            carried.setdefault(eid, []).append((commodity_index, units))
    lines = ["digraph network {", "  rankdir=LR;", "  node [shape=circle, fontsize=11];"]
    for com in net.commodities:
        lines.append(
            f"  // commodity {com.index}: {com.source} -> {com.sink}"
            f" [{_commodity_color(com.index)}]"
        )
    for name in net.nodes:
        lines.append(f"  {_dot_quote(name)};")
    for edge in net.edges:
        if assignment is None:
            attrs = f'label="{edge.capacity}"'
        else:
            flows = carried.get(edge.id, [])
            total = sum(units for _, units in flows)
            color = ":".join(_commodity_color(i) for i, units in flows if units > 0) or "gray"
            attrs = f'label="{total}/{edge.capacity}", color="{color}"'
        lines.append(f"  {_dot_quote(edge.tail)} -> {_dot_quote(edge.head)} [{attrs}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class UpperBounds:
    """Two relaxations reported next to any assignment."""

    individual_total: int
    inclusion_exclusion: int


def upper_bounds(tables: FlowTables) -> UpperBounds:
    """Sum of the individual max flows, and the cut inclusion-exclusion
    bound, over the commodities of `tables.network`.

    The alternating sum over commodity subsets whose terms
    intersection_terms yields collapses to the capacity of the union of the
    min-cut edges, so that is computed directly: O(E) rather than 2^K - 1
    subset intersections.
    """
    union = {edge.id: edge.capacity for flow in tables.flows for edge in flow.min_cut.cut_edges}
    return UpperBounds(sum(flow.value for flow in tables.flows), sum(union.values()))
