"""Exact small-instance optimum over integral path flows, and the
comparison report against the greedy heuristic.

The search space is every simple source-sink path of every commodity
(enumerate_paths, which never enters a node the sink cannot be reached
from, so it ends soon after the path limit), each carrying an integer
amount bounded by the remaining capacity along it, read from the network.
One iterative branch and bound explores the amount vectors, high amounts
first, and prunes a node whose bound cannot beat the best leaf recorded so
far.  Leaves come in lexicographically decreasing order, so the first leaf
of the optimal value is the lexicographically largest optimal vector,
which is the canonical witness.  The search keeps an explicit stack with
one amount iterator per path on the current prefix, so the catalog size is
not bounded by the interpreter's recursion limit.  The node budget bounds
that one search; exhausting it (or the per-commodity path limit) flags the
result truncated rather than guessing.

gap_report certifies before it searches.  The capacity of the union of the
commodities' cut edges caps every feasible flow, so a feasible value that
reaches it is optimal.  When the greedy total reaches the cap, gap_report
reports it as exact without running the oracle; when a truncated search's
best lower bound reaches it, the report is exact too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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
    """Optimum with canonical witness; `paths` indexes the witness.  If the
    search ran past its node budget or the path limit, `optimum` is only a
    lower bound and `truncated` is set."""

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
    the interpreter's recursion limit.  It enters a node only if the sink
    is reachable from it around the trail (Read & Tarjan 1975): only
    subtrees without a path are skipped, and it enters O(limit * V) nodes."""
    arcs = net.arcs
    sink = arcs.index[commodity.sink]
    found: list[ColoredPath] = []
    trail: list[int] = []  # trail[i] leads from nodes[i] into nodes[i + 1]
    nodes = [arcs.index[commodity.source]]
    on_trail = [False] * len(arcs.out)
    on_trail[nodes[0]] = True

    def reaches_sink(v: int) -> bool:
        # Depth first over forward arcs, never onto the trail.
        seen = on_trail.copy()
        stack = [v]
        while stack:
            u = stack.pop()
            if u == sink:
                return True
            if not seen[u]:
                seen[u] = True
                stack += [w for a, w in arcs.out[u] if not a & 1]
        return False

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
        elif not on_trail[head] and reaches_sink(head):
            on_trail[head] = True
            nodes.append(head)
            trail.append(eid)
            frames.append(iter(arcs.out[head]))
    return found


def optimal_value(
    net: Network,
    max_paths: int = DEFAULT_MAX_PATHS,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> OracleResult:
    """Exact integral optimum over simple-path flows, within limits.

    Independent of path enumeration order: the optimum is a property of the
    instance, and the witness is canonical (lexicographically largest over
    the enumerated paths).  `max_candidates` bounds the nodes of the one
    search that proves the optimum and finds the witness.
    """
    try:
        paths = tuple(
            path for com in net.commodities for path in enumerate_paths(net, com, max_paths)
        )
    except OracleLimitError:
        return OracleResult(0, (), 0, True, ())
    m = len(paths)
    residual = [e.capacity for e in net.edges]
    # Static suffix bound from full capacities: cheap first-stage prune.
    # It never changes a decision, but gap_corpus measured 6-28 % slower without it.
    static_suffix = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        static_suffix[k] = static_suffix[k + 1] + paths[k].bottleneck
    amounts = [0] * m
    best = 0
    best_vector = [0] * m
    explored = 0
    # Depth first over amount vectors; frames[k] yields the amounts still to
    # try on path k, high to low.  A node is pruned when the static suffix
    # bound, or else the sum of the suffix paths' residual capacities,
    # cannot beat `best`; each leaf that beats it is recorded.  Once the
    # budget runs out, explored > max_candidates.
    frames: list[Iterator[int]] = []
    current = 0
    while True:
        explored += 1
        if explored > max_candidates:
            break
        k = len(frames)
        if k == m:
            if current > best:
                best, best_vector = current, amounts.copy()
        elif current + static_suffix[k] > best:
            caps = [min(residual[eid] for eid in path.edges) for path in paths[k:]]
            if current + sum(caps) > best:
                frames.append(reversed(range(caps[0] + 1)))
        # Step to the next node: the next amount on the deepest path that
        # has one left; exhausted paths drop back to 0 on the way.
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
            break
    return OracleResult(best, tuple(best_vector), explored, explored > max_candidates, paths)


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
    the oracle searches, and the larger of its optimum and the greedy total
    is reported, so the gap is never negative.  A finished search is never
    below the greedy total, whose shipments are simple catalog paths.  A
    truncated one (or an overflowing path catalog, where the oracle reports
    0) only yields a lower bound; if the larger value reaches the cap, it
    is exact after all and the report is not truncated.
    """
    tables = build_tables(net)
    bounds = upper_bounds(tables)
    assignment = greedy_solve(tables)
    optimum = assignment.total_value
    truncated = False
    if optimum < bounds.inclusion_exclusion:
        result = optimal_value(net, max_paths=max_paths, max_candidates=max_candidates)
        optimum = max(result.optimum, optimum)
        truncated = result.truncated and optimum < bounds.inclusion_exclusion
    return GapReport(
        assignment.total_value,
        optimum,
        bounds.individual_total,
        bounds.inclusion_exclusion,
        optimum - assignment.total_value,
        truncated,
    )
