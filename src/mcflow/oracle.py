"""Exact small-instance optimum over integral path flows, and the
comparison report against the greedy heuristic.

The search space is every simple source-sink path of every commodity, each
carrying an integer amount bounded by the remaining capacity along it.
Branch and bound explores the amount vectors in two deterministic passes:
a descending pass pins the optimum quickly, an ascending pass then recovers
the lexicographically smallest optimal vector as the canonical witness.
Both passes share one node budget; exhausting it (or the per-commodity path
limit) flags the result truncated rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .heuristic import greedy_solve, upper_bounds
from .netmodel import Commodity, Network
from .tables import build_tables

__all__ = [
    "DEFAULT_MAX_CANDIDATES",
    "DEFAULT_MAX_PATHS",
    "GapReport",
    "OracleLimitError",
    "OracleResult",
    "SimplePath",
    "enumerate_paths",
    "gap_report",
    "optimal_value",
]

DEFAULT_MAX_PATHS = 64
DEFAULT_MAX_CANDIDATES = 10_000_000


class OracleLimitError(RuntimeError):
    """The instance exceeds the oracle's enumeration limits."""


@dataclass(frozen=True)
class SimplePath:
    """A simple source-sink path; bottleneck is its minimum capacity."""

    commodity: int
    edges: tuple[int, ...]
    bottleneck: int


@dataclass(frozen=True)
class OracleResult:
    """Optimum with canonical witness; `paths` indexes the witness."""

    optimum: int
    witness: tuple[int, ...]
    explored: int
    truncated: bool
    paths: tuple[SimplePath, ...]


def enumerate_paths(
    net: Network, commodity: Commodity, limit: int = DEFAULT_MAX_PATHS
) -> list[SimplePath]:
    """All simple source-sink paths of one commodity, depth first with
    lower edge ids explored first.  Raises OracleLimitError past `limit`.

    Iterative: one edge iterator per node on the current trail, so path
    length is not bounded by the interpreter's recursion limit."""
    out = net.adjacency[0]
    found: list[SimplePath] = []
    trail: list[int] = []  # trail[i] leads into the node of frames[i + 1]
    visited = {commodity.source}
    frames = [iter(out[commodity.source])]
    while frames:
        edge = next(frames[-1], None)
        if edge is None:
            frames.pop()
            if trail:
                visited.remove(net.edges[trail.pop()].head)
        elif edge.head == commodity.sink:
            edges = (*trail, edge.id)
            found.append(
                SimplePath(
                    commodity.index,
                    edges,
                    min(net.edges[eid].capacity for eid in edges),
                )
            )
            if len(found) > limit:
                raise OracleLimitError(
                    f"commodity {commodity.index}: more than {limit} simple paths"
                )
        elif edge.head not in visited:
            visited.add(edge.head)
            trail.append(edge.id)
            frames.append(iter(out[edge.head]))
    return found


def optimal_value(
    net: Network,
    max_paths: int = DEFAULT_MAX_PATHS,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    catalog: Sequence[SimplePath] | None = None,
) -> OracleResult:
    """Exact integral optimum over simple-path flows, within limits.

    Independent of path enumeration order: the optimum is a property of the
    instance, and the witness is canonical (lexicographically smallest over
    the catalog order used).  Pass `catalog` to restrict the search to a
    known path set.
    """
    if catalog is None:
        try:
            catalog = [
                path
                for com in net.commodities
                for path in enumerate_paths(net, com, max_paths)
            ]
        except OracleLimitError:
            return OracleResult(0, (), 0, True, ())
    paths = tuple(catalog)
    m = len(paths)
    residual = [e.capacity for e in net.edges]
    # Static suffix bound from full capacities: cheap first-stage prune.
    static_suffix = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        static_suffix[k] = static_suffix[k + 1] + paths[k].bottleneck
    amounts = [0] * m
    best_value = 0
    best_vector = [0] * m
    explored = 0
    budget_hit = False

    def path_cap(k: int) -> int:
        return min(residual[eid] for eid in paths[k].edges)

    def remaining_bound(k: int) -> int:
        return sum(path_cap(j) for j in range(k, m))

    def descend(k: int, current: int) -> None:
        nonlocal explored, best_value, best_vector, budget_hit
        if budget_hit:
            return
        explored += 1
        if explored > max_candidates:
            budget_hit = True
            return
        if k == m:
            if current > best_value:
                best_value = current
                best_vector = amounts.copy()
            return
        if current + static_suffix[k] <= best_value:
            return
        if current + remaining_bound(k) <= best_value:
            return
        for a in range(path_cap(k), -1, -1):
            amounts[k] = a
            for eid in paths[k].edges:
                residual[eid] -= a
            descend(k + 1, current + a)
            for eid in paths[k].edges:
                residual[eid] += a
            amounts[k] = 0
            if budget_hit:
                return

    def ascend(k: int, current: int) -> bool:
        # First completion reaching best_value, in ascending amount order,
        # is the lexicographically smallest optimal vector.
        nonlocal explored, budget_hit
        if budget_hit:
            return False
        explored += 1
        if explored > max_candidates:
            budget_hit = True
            return False
        if k == m:
            return current == best_value
        if current + static_suffix[k] < best_value:
            return False
        if current + remaining_bound(k) < best_value:
            return False
        for a in range(0, path_cap(k) + 1):
            amounts[k] = a
            for eid in paths[k].edges:
                residual[eid] -= a
            hit = ascend(k + 1, current + a)
            for eid in paths[k].edges:
                residual[eid] += a
            if hit:
                return True
            amounts[k] = 0
            if budget_hit:
                return False
        return False

    descend(0, 0)
    if budget_hit:
        return OracleResult(best_value, tuple(best_vector), explored, True, paths)
    found = ascend(0, 0)
    if budget_hit:
        return OracleResult(best_value, tuple(best_vector), explored, True, paths)
    assert found, "optimum witnessed in the first pass must be recoverable"
    return OracleResult(best_value, tuple(amounts), explored, False, paths)


@dataclass(frozen=True)
class GapReport:
    """Heuristic value, exact optimum, and both upper bounds side by side."""

    heuristic_value: int
    optimum: int
    individual_total: int
    inclusion_exclusion: int
    gap: int
    truncated: bool


def gap_report(
    net: Network,
    max_paths: int = DEFAULT_MAX_PATHS,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> GapReport:
    """Run tables + greedy + bounds + oracle on one network.

    `gap` is optimum minus heuristic value; it is only meaningful when
    `truncated` is False.  A truncated search (or an overflowing path
    catalog, where the oracle reports 0) only yields a lower bound, and the
    feasible greedy total is one too, so the larger of the two is reported
    and the gap is never negative.
    """
    tables = build_tables(net)
    bounds = upper_bounds(net, tables)
    assignment = greedy_solve(tables)
    result = optimal_value(net, max_paths=max_paths, max_candidates=max_candidates)
    optimum = result.optimum
    if result.truncated:
        optimum = max(optimum, assignment.total_value)
    return GapReport(
        assignment.total_value,
        optimum,
        bounds.individual_total,
        bounds.inclusion_exclusion,
        optimum - assignment.total_value,
        result.truncated,
    )
