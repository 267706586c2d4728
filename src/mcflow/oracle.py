"""Exact integral optimum of the joint flow, reported with the greedy
heuristic's assignment and the upper bounds it is compared against.

It certifies before it searches: each commodity's flow crosses its own
cut, so the capacity of the union of the cut edges caps every feasible
flow, and a greedy total that reaches it is optimal.  Otherwise one LP
branch and bound (Land & Doig 1960) searches, within a pivot budget and a
ceiling on the tableau entries it reads or rewrites; running out of either
flags the result truncated, with the best value found as the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .heuristic import Assignment, UpperBounds, greedy_solve, upper_bounds
from .maxflow import decompose_cut_paths
from .netmodel import Network
from .tables import build_tables

__all__ = ["DEFAULT_MAX_CANDIDATES", "OracleResult", "optimal_value"]

DEFAULT_MAX_CANDIDATES = 10_000_000
_MAX_ENTRIES = 1_000_000


@dataclass(frozen=True)
class OracleResult:
    """Optimum with a feasible witness flow; `explored` counts simplex
    pivots.  If the search ran past its budget, `optimum` is only a lower
    bound, the witness's value, and `truncated` is set.  `greedy` is the
    heuristic's assignment and `bounds` the upper bounds, both from the
    same tables; the search starts from greedy's total, so the optimum,
    exact or not, is never below it."""

    optimum: int
    witness: Assignment
    explored: int
    truncated: bool
    greedy: Assignment
    bounds: UpperBounds


class _Exhausted(Exception):
    """The search ran out of pivots or of tableau entries."""


@dataclass
class _Budget:
    limit: int
    pivots: int = 0
    entries: int = 0


def _simplex(n: int, rows: list, objective: dict[int, int], budget: _Budget):
    """Maximise objective . x over x >= 0 with coefs . x <= bound for each
    (coefs, bound) in `rows`, all sparse dicts over the variables 0..n-1.
    Returns (value, {j: x_j} over the basic j < n), or None if infeasible.

    Row i's slack is variable n + i.  Row i of the dictionary reads
    x_basis[i] + sum(row[j] * x_j) = rhs[i] over the nonbasic j, and row m
    is the objective, z + sum(row[j] * x_j) = rhs[m].  Bland's rule enters
    the lowest j with a negative objective entry and drops the lowest
    basic variable among the tied ratios, so it cannot cycle (Bland 1977).
    A negative bound, which only an up branch makes, calls in Chvatal's
    auxiliary variable -1: it enters at the most negative row, and a first
    phase maximises -x_{-1} until it leaves, which it does as soon as it
    can, being the lowest variable.  If it cannot, the rows are infeasible.
    """
    from fractions import Fraction  # 2-3 ms to import, so only once an LP runs

    m = len(rows)
    table = [dict(coefs) for coefs, _ in rows] + [{j: -c for j, c in objective.items()}]
    rhs = [bound for _, bound in rows] + [0]
    basis = list(range(n, n + m))

    def pivot(r: int, q: int) -> None:
        if budget.pivots == budget.limit or budget.entries > _MAX_ENTRIES:
            raise _Exhausted
        budget.pivots += 1
        a = table[r].pop(q)
        table[r][basis[r]] = 1
        table[r] = row = {j: Fraction(v, a) for j, v in table[r].items()}
        rhs[r] = Fraction(rhs[r], a)
        basis[r] = q
        for i, other in enumerate(table):
            if i != r and (alpha := other.pop(q, 0)):
                rhs[i] -= alpha * rhs[r]
                for j, v in row.items():
                    if w := other.get(j, 0) - alpha * v:
                        other[j] = w
                    else:
                        del other[j]
                budget.entries += len(row)
        budget.entries += len(table)

    def improve(goal: int) -> bool:
        """One Bland pivot on objective row `goal`; False once it is optimal."""
        q = min((j for j, v in table[goal].items() if v < 0), default=None)
        if q is not None:
            ratios = [(Fraction(rhs[i], row[q]), basis[i], i)
                      for i, row in enumerate(table[:m]) if row.get(q, 0) > 0]
            pivot(min(ratios)[2], q)
        return q is not None

    if min(rhs) < 0:
        for row in table[:m]:
            row[-1] = -1
        table.append({-1: 1})
        rhs.append(0)
        pivot(rhs.index(min(rhs)), -1)
        while -1 in basis:
            if not improve(m + 1):
                return None
        del table[-1], rhs[-1]
        for row in table:
            row.pop(-1, None)
    while improve(m):
        pass
    return rhs[m], {j: rhs[i] for i, j in enumerate(basis) if j < n}


def optimal_value(net: Network, max_candidates: int = DEFAULT_MAX_CANDIDATES) -> OracleResult:
    """Exact integral optimum of the joint flow, with a witness, within
    `max_candidates` simplex pivots: certified by the cut-union bound when
    greedy reaches it, else found by the search.

    The LP has a variable per commodity and edge of positive capacity, but
    for edges into the commodity's source or out of its sink; a capacity
    row per edge; each commodity's conservation at every other node as two
    <= 0 rows; and the flow leaving each source as objective.  The search
    is depth first from greedy's total, takes the up branch first on the
    first fractional variable, and prunes a node whose LP's floor cannot
    beat the best value found.  The best integral flow is peeled into
    paths; if nothing beats greedy, greedy is the witness.
    """
    tables = build_tables(net)
    bounds = upper_bounds(tables)
    greedy = greedy_solve(tables)
    if greedy.total_value == bounds.inclusion_exclusion:
        return OracleResult(greedy.total_value, greedy, 0, False, greedy, bounds)
    variables = [(com, e) for com in net.commodities for e in net.edges
                 if e.capacity and e.head != com.source and e.tail != com.sink]
    capacity: dict[int, dict[int, int]] = {}
    balance: dict[tuple, dict[int, int]] = {}
    for j, (com, e) in enumerate(variables):
        capacity.setdefault(e.id, {})[j] = 1
        balance.setdefault((com, e.tail), {})[j] = -1
        balance.setdefault((com, e.head), {})[j] = 1
    objective = {j: 1 for j, (com, e) in enumerate(variables) if e.tail == com.source}
    rows = [(coefs, net.edges[eid].capacity) for eid, coefs in capacity.items()]
    for (com, v), coefs in balance.items():
        if v != com.source and v != com.sink:
            rows += [(coefs, 0), ({j: -c for j, c in coefs.items()}, 0)]
    budget = _Budget(max_candidates)
    best, best_flow = greedy.total_value, None
    # Each node: its parent's floor(LP), which caps its own, and its branch rows.
    stack: list[tuple[int, list]] = [(bounds.inclusion_exclusion, [])]
    truncated = False
    try:
        while stack:
            bound, branch = stack.pop()
            if bound <= best:
                continue
            solved = _simplex(len(variables), rows + branch, objective, budget)
            if solved is None or (bound := math.floor(solved[0])) <= best:
                continue
            x = solved[1]
            j = next((j for j in sorted(x) if x[j].denominator > 1), None)
            if j is None:
                best, best_flow = bound, x
            else:
                stack.append((bound, [*branch, ({j: 1}, math.floor(x[j]))]))
                stack.append((bound, [*branch, ({j: -1}, -math.ceil(x[j]))]))
    except _Exhausted:
        truncated = True
    witness = greedy
    if best_flow is not None:
        witness = _peel(net, [(variables[j], int(f)) for j, f in sorted(best_flow.items()) if f])
    return OracleResult(best, witness, budget.pivots, truncated, greedy, bounds)


def _peel(net: Network, flow: list) -> Assignment:
    """An integral flow, ((commodity, edge), units) by commodity and edge
    id, peeled per commodity by decompose_cut_paths."""
    shipments = []
    edge_flow: dict[tuple[int, int], int] = {}
    for com in net.commodities:
        units = {e.id: f for (k, e), f in flow if k is com}
        for path in decompose_cut_paths(net, com, units):
            shipments.append((path, path.bottleneck))
            for eid in path.edges:
                edge_flow[com.index, eid] = edge_flow.get((com.index, eid), 0) + path.bottleneck
    per_commodity = {com.index: sum(a for p, a in shipments if p.commodity == com.index)
                     for com in net.commodities}
    return Assignment(shipments, [], edge_flow, per_commodity, sum(per_commodity.values()))

