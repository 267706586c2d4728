"""Exact small-instance optimum over integral path flows, and the
comparison report against the greedy heuristic.

The search space is every simple source-sink path of every commodity
(enumerate_paths), each carrying an integer amount bounded by the remaining
capacity along it, read from the network and never from a catalog path.
One iterative branch and bound explores the amount vectors, and runs
twice.  Each pass prunes a node whose bound cannot reach a target value.
The descending pass tries high amounts first and raises its target past
every leaf it records, which pins the optimum quickly; the ascending pass
targets that optimum, tries low amounts first and stops at the first leaf
reaching it, the lexicographically smallest optimal vector, which is the
canonical witness.  The search keeps an explicit stack with one amount
iterator per path on the current prefix, so the catalog size is not bounded
by the interpreter's recursion limit.  Both passes share one node budget;
exhausting it (or the per-commodity path limit) flags the result truncated
rather than guessing.

gap_report certifies before it searches.  The capacity of the union of the
commodities' cut edges caps every feasible flow, so a feasible value that
reaches it is optimal.  When the greedy total reaches the cap, gap_report
reports it as exact without running the oracle; when a truncated search's
best lower bound reaches it, the report is exact too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .heuristic import greedy_solve, upper_bounds
from .maxflow import ColoredPath
from .netmodel import Commodity, Network
from .tables import build_tables

__all__ = [
    "DEFAULT_MAX_CANDIDATES",
    "DEFAULT_MAX_PATHS",
    "GapReport",
    "OracleLimitError",
    "OracleResult",
    "enumerate_paths",
    "gap_report",
    "optimal_value",
]

DEFAULT_MAX_PATHS = 64
DEFAULT_MAX_CANDIDATES = 10_000_000


class OracleLimitError(RuntimeError):
    """The instance exceeds the oracle's enumeration limits."""


@dataclass(frozen=True)
class OracleResult:
    """Optimum with canonical witness; `paths` indexes the witness."""

    optimum: int
    witness: tuple[int, ...]
    explored: int
    truncated: bool
    paths: tuple[ColoredPath, ...]


def enumerate_paths(
    net: Network, commodity: Commodity, limit: int = DEFAULT_MAX_PATHS
) -> list[ColoredPath]:
    """All simple source-sink paths of one commodity, depth first with
    lower edge ids explored first, numbered from 1; each path's bottleneck
    is its smallest capacity.  Raises OracleLimitError past `limit`.

    Iterative: one iterator over `Network.arcs` per node on the current
    trail, reading only the forward arcs, so path length is not bounded by
    the interpreter's recursion limit."""
    arcs = net.arcs
    sink = arcs.index[commodity.sink]
    found: list[ColoredPath] = []
    trail: list[int] = []  # trail[i] leads from nodes[i] into nodes[i + 1]
    nodes = [arcs.index[commodity.source]]
    on_trail = [False] * len(arcs.out)
    on_trail[nodes[0]] = True
    frames = [iter(arcs.out[nodes[0]])]
    while frames:
        step = next(frames[-1], None)
        if step is None or step[0] & 1:  # the forward arcs are done
            frames.pop()
            on_trail[nodes.pop()] = False
            if trail:
                trail.pop()
            continue
        eid, head = step[0] >> 1, step[1]
        if head == sink:
            edges = (*trail, eid)
            found.append(
                ColoredPath(
                    commodity.index,
                    len(found) + 1,
                    edges,
                    min(net.edges[e].capacity for e in edges),
                )
            )
            if len(found) > limit:
                raise OracleLimitError(
                    f"commodity {commodity.index}: more than {limit} simple paths"
                )
        elif not on_trail[head]:
            on_trail[head] = True
            nodes.append(head)
            trail.append(eid)
            frames.append(iter(arcs.out[head]))
    return found


def optimal_value(
    net: Network,
    max_paths: int = DEFAULT_MAX_PATHS,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    catalog: Sequence[ColoredPath] | None = None,
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
        static_suffix[k] = static_suffix[k + 1] + min(residual[e] for e in paths[k].edges)
    amounts = [0] * m
    best_vector = [0] * m
    explored = 0
    target = 1  # the value a leaf must reach; the descending pass raises it

    def search(descending: bool) -> bool:
        # Depth first over amount vectors; frames[k] yields the amounts
        # still to try on path k, high to low when descending.  A node is
        # pruned when the static suffix bound, or else the sum of the
        # suffix paths' residual capacities, cannot reach `target`.  The
        # descending pass records each leaf reaching `target` and raises
        # `target` past it; the ascending pass stops at the first such leaf,
        # leaving it in `amounts`, and returns True.  Both passes share the
        # node budget: once it runs out, explored > max_candidates.
        nonlocal explored, target, best_vector
        frames: list[Iterator[int]] = []
        current = 0
        while True:
            explored += 1
            if explored > max_candidates:
                return False
            k = len(frames)
            if k == m:
                if current >= target:
                    if not descending:
                        return True
                    best_vector = amounts.copy()
                    target = current + 1
            elif current + static_suffix[k] >= target:
                caps = [min(residual[eid] for eid in path.edges) for path in paths[k:]]
                if current + sum(caps) >= target:
                    tries = range(caps[0] + 1)
                    frames.append(reversed(tries) if descending else iter(tries))
            # Step to the next node: the next amount on the deepest path
            # that has one left; exhausted paths drop back to 0 on the way.
            while frames:
                k = len(frames) - 1
                a = next(frames[k], None)
                if a is None:
                    frames.pop()
                    a = 0
                delta = a - amounts[k]
                amounts[k] = a
                current += delta
                for eid in paths[k].edges:
                    residual[eid] -= delta
                if len(frames) > k:
                    break
            else:
                return False

    search(descending=True)
    target -= 1  # the best value found; the ascending pass must reach it
    if explored <= max_candidates and search(descending=False):
        return OracleResult(target, tuple(amounts), explored, False, paths)
    assert explored > max_candidates, "the optimum found descending must be recoverable"
    return OracleResult(target, tuple(best_vector), explored, True, paths)


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
    `truncated` is False.  The greedy total is feasible, and the capacity
    of the union of the cut edges caps every feasible flow, since each
    commodity's flow crosses its own cut.  A value that is feasible and
    reaches that cap is therefore optimal: when the greedy total does, it
    is reported as the exact optimum and the oracle is not run.  Otherwise
    the oracle searches.  A truncated search (or an overflowing path
    catalog, where the oracle reports 0) only yields a lower bound, and the
    feasible greedy total is one too, so the larger of the two is reported
    and the gap is never negative; if that value reaches the cap, it is
    exact after all and the report is not truncated.
    """
    tables = build_tables(net)
    bounds = upper_bounds(tables)
    assignment = greedy_solve(tables)
    optimum = assignment.total_value
    truncated = False
    if optimum < bounds.inclusion_exclusion:
        result = optimal_value(net, max_paths=max_paths, max_candidates=max_candidates)
        if result.truncated:
            optimum = max(result.optimum, optimum)
            truncated = optimum < bounds.inclusion_exclusion
        else:
            optimum = result.optimum
    return GapReport(
        assignment.total_value,
        optimum,
        bounds.individual_total,
        bounds.inclusion_exclusion,
        optimum - assignment.total_value,
        truncated,
    )
