"""Greedy path selection by minimum color count, plus feasibility checks
and capacity-based upper bounds on the joint flow.

The selection rule: a path whose edges carry only its own color competes
with nobody, so it ships first; after that the active path with the fewest
distinct colors ships next, always at its current residual bottleneck.
Ties break on (commodity, ordinal).  The shipped total is a lower bound on
the joint optimum; upper_bounds reports two capacity relaxations next to it,
and intersection_terms streams the subset terms behind the second.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from .maxflow import ColoredPath, Cut
from .netmodel import Network, _check_references
from .tables import FlowTables

__all__ = [
    "Assignment",
    "UpperBounds",
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

    Returns one message per violation; raises ValueError if the assignment
    references an edge or commodity the network does not have.  One pass
    over edge_flow fills per-edge totals and a balance (inflow minus
    outflow) per (commodity, node) it touches; in and out totals are
    rebuilt only to word a violation, so the check costs O(E + K + flow entries).
    """
    _check_references(net, assignment)
    violations: list[str] = []
    used = [0] * len(net.edges)
    balance: dict[tuple[int, str], int] = {}
    for (commodity_index, eid), units in assignment.edge_flow.items():
        if units < 0:
            violations.append(f"commodity {commodity_index}, edge {eid}: negative flow {units}")
        edge = net.edges[eid]
        used[eid] += units
        head = (commodity_index, edge.head)
        tail = (commodity_index, edge.tail)
        balance[head] = balance.get(head, 0) + units
        balance[tail] = balance.get(tail, 0) - units
    for edge in net.edges:
        if used[edge.id] > edge.capacity:
            violations.append(
                f"edge {edge.id} ({edge.tail}->{edge.head}):"
                f" total flow {used[edge.id]} exceeds capacity {edge.capacity}"
            )
    unbalanced: dict[int, list[str]] = {}
    for (commodity_index, node), amount in balance.items():
        if amount:
            unbalanced.setdefault(commodity_index, []).append(node)
    for com in net.commodities:
        bad = {n for n in unbalanced.get(com.index, ()) if n != com.source and n != com.sink}
        if bad:
            node_in = dict.fromkeys(bad, 0)
            for (commodity_index, eid), units in assignment.edge_flow.items():
                head = net.edges[eid].head
                if commodity_index == com.index and head in bad:
                    node_in[head] += units
            violations.extend(
                f"commodity {com.index}, node {node}: inflow {node_in[node]}"
                f" != outflow {node_in[node] - balance[com.index, node]}"
                for node in net.nodes if node in bad
            )
        net_out = -balance.get((com.index, com.source), 0)
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

    The alternating sum over commodity subsets whose terms
    intersection_terms yields collapses to the capacity of the union of the
    min-cut edges, so that is computed directly: O(E) rather than 2^K - 1
    subset intersections.
    """
    union = {edge.id: edge.capacity for flow in tables.flows for edge in flow.min_cut.cut_edges}
    return UpperBounds(sum(flow.value for flow in tables.flows), sum(union.values()))
