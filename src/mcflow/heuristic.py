"""Greedy path selection by minimum color count, plus feasibility checks
and capacity-based upper bounds on the joint flow.

The selection rule: a path whose edges carry only its own color competes
with nobody, so it ships first; after that the active path with the fewest
distinct colors ships next, always at its current residual bottleneck.
Ties break on (commodity, ordinal).  The shipped total is a lower bound on
the joint optimum; upper_bounds reports two capacity relaxations next to it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .maxflow import ColoredPath, Cut
from .netmodel import Network, _check_references
from .tables import ACTIVE, FlowTables, ship_position

__all__ = [
    "Assignment",
    "BoundReport",
    "UpperBounds",
    "greedy_solve",
    "inclusion_exclusion_bound",
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

    Requires freshly built tables (every path active).  Feasible by
    construction: each shipment moves exactly the path's current residual
    bottleneck.  The next path comes off a heap keyed by (color count,
    position); positions run in (commodity, ordinal) order, which breaks
    the ties.  A path whose count changes is pushed again; counts only
    ever fall, so its fresher, smaller key pops first and ships or
    discards the path.  Every entry popped for a still active path
    therefore carries its current count, and the rest are skipped.
    """
    status = tables.path_status
    if any(s != ACTIVE for s in status):
        raise ValueError("greedy_solve requires freshly built tables")
    paths = tables.paths
    counts = tables.path_color_count
    shipments: list[tuple[ColoredPath, int]] = []
    discarded: list[ColoredPath] = []
    edge_flow: dict[tuple[int, int], int] = {}
    per_commodity = {com.index: 0 for com in tables.network.commodities}
    heap = [(count, position) for position, count in enumerate(counts)]
    heapq.heapify(heap)
    while heap:
        count, position = heapq.heappop(heap)
        if status[position] != ACTIVE:
            continue
        assert count == counts[position], "stale heap entry for an active path"
        amount = tables.path_bottleneck[position]
        dropped, recounted = ship_position(tables, position, amount)
        choice = paths[position]
        shipments.append((choice, amount))
        per_commodity[choice.commodity] += amount
        for eid in choice.edges:
            key = (choice.commodity, eid)
            edge_flow[key] = edge_flow.get(key, 0) + amount
        discarded.extend(paths[p] for p in dropped)
        for p in recounted:
            if status[p] == ACTIVE:
                heapq.heappush(heap, (counts[p], p))
    total = sum(amount for _, amount in shipments)
    return Assignment(shipments, discarded, edge_flow, per_commodity, total)


@dataclass
class BoundReport:
    """Alternating-sum bound with all its terms laid out."""

    individual_cut_sums: dict[int, int]
    intersection_terms: dict[tuple[int, ...], int]
    bound: int


def inclusion_exclusion_bound(cuts: Sequence[Cut]) -> BoundReport:
    """Alternating-sign sum of shared cut capacity over every nonempty
    commodity subset: singletons add, pairs subtract, triples add, and so
    on, intersecting the cut edge sets.

    The sum equals the capacity of the union of the cut edges, which
    upper_bounds computes directly in O(E).  This function exists to lay
    the terms out (`mcflow bound`): it lists all 2^K - 1 of them for K
    cuts and costs that much time and memory.
    """
    edge_sets = [frozenset(e.id for e in cut.cut_edges) for cut in cuts]
    capacity: dict[int, int] = {}
    for cut in cuts:
        for edge in cut.cut_edges:
            capacity[edge.id] = edge.capacity
    individual = {position + 1: cut.capacity for position, cut in enumerate(cuts)}
    terms: dict[tuple[int, ...], int] = {}
    bound = 0
    for size in range(1, len(cuts) + 1):
        sign = 1 if size % 2 == 1 else -1
        for subset in combinations(range(len(cuts)), size):
            shared = frozenset.intersection(*(edge_sets[i] for i in subset))
            weight = sum(capacity[eid] for eid in shared)
            terms[tuple(i + 1 for i in subset)] = weight
            bound += sign * weight
    return BoundReport(individual, terms, bound)


def validate_assignment(net: Network, assignment: Assignment) -> list[str]:
    """Check capacity sharing, per-commodity conservation, and totals.

    Returns one message per violation; raises ValueError if the assignment
    references an edge or commodity the network does not have.  One pass
    over edge_flow fills per-edge and per-(commodity, node) accumulators,
    so the check costs O(K*V + E + flow entries).
    """
    _check_references(net, assignment)
    violations: list[str] = []
    used = [0] * len(net.edges)
    inflow: dict[tuple[int, str], int] = {}
    outflow: dict[tuple[int, str], int] = {}
    for (commodity_index, eid), units in assignment.edge_flow.items():
        if units < 0:
            violations.append(
                f"commodity {commodity_index}, edge {eid}: negative flow {units}"
            )
        edge = net.edges[eid]
        used[eid] += units
        head = (commodity_index, edge.head)
        tail = (commodity_index, edge.tail)
        inflow[head] = inflow.get(head, 0) + units
        outflow[tail] = outflow.get(tail, 0) + units
    for edge in net.edges:
        if used[edge.id] > edge.capacity:
            violations.append(
                f"edge {edge.id} ({edge.tail}->{edge.head}):"
                f" total flow {used[edge.id]} exceeds capacity {edge.capacity}"
            )
    for com in net.commodities:
        for node in net.nodes:
            if node in (com.source, com.sink):
                continue
            node_in = inflow.get((com.index, node), 0)
            node_out = outflow.get((com.index, node), 0)
            if node_in != node_out:
                violations.append(
                    f"commodity {com.index}, node {node}:"
                    f" inflow {node_in} != outflow {node_out}"
                )
        source = (com.index, com.source)
        net_out = outflow.get(source, 0) - inflow.get(source, 0)
        declared = assignment.per_commodity_value.get(com.index, 0)
        if net_out != declared:
            violations.append(
                f"commodity {com.index}: declared value {declared}"
                f" != net source outflow {net_out}"
            )
    shipped = sum(amount for _, amount in assignment.shipments)
    if assignment.total_value != shipped:
        violations.append(
            f"total {assignment.total_value} != shipment sum {shipped}"
        )
    split = sum(assignment.per_commodity_value.values())
    if assignment.total_value != split:
        violations.append(
            f"total {assignment.total_value} != per-commodity sum {split}"
        )
    return violations


@dataclass(frozen=True)
class UpperBounds:
    """Two relaxations reported next to any assignment."""

    individual_total: int
    inclusion_exclusion: int


def upper_bounds(tables: FlowTables) -> UpperBounds:
    """Sum of the individual max flows, and the cut inclusion-exclusion
    bound, over the commodities of `tables.network`.

    The alternating sum over commodity subsets that
    inclusion_exclusion_bound lays out collapses to the capacity of the
    union of the min-cut edges, so that is computed directly: O(E) rather
    than 2^K - 1 subset intersections.
    """
    total = sum(tables.commodity_value.values())
    union = {edge.id: edge.capacity for cut in tables.cuts.values() for edge in cut.cut_edges}
    return UpperBounds(total, sum(union.values()))
