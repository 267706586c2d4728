"""Output checks for the benchmark, all run outside the timed region.

Each check returns a list of problems; an empty list means the output is
right.  Nothing here imports `mcflow`: results are checked from the CLI
text and from plain attributes of the captured `Assignment`.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict


def instance_key(text: str) -> str:
    """Stable name of one network text, used to look up recorded values."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def parse_records(output: str) -> dict[str, list[list[str]]]:
    """Structured CLI output: record name -> list of field lists.

    Unknown record names are kept, so outputs that gain records still parse.
    """
    records: dict[str, list[list[str]]] = defaultdict(list)
    for line in output.splitlines():
        if line:
            key, *fields = line.split("\t")
            records[key].append(fields)
    return records


def _single_int(records, key: str) -> int:
    rows = records.get(key)
    if not rows or len(rows) != 1:
        raise ValueError(f"expected one {key!r} record, got {len(rows or [])}")
    return int(rows[0][0])


def check_solve(code: int, output: str) -> tuple[list[str], dict]:
    """Checks on `mcflow solve --format structured`; returns the problems
    and the values compared against recorded ones."""
    if code != 0:
        return [f"solve exited {code}"], {}
    try:
        records = parse_records(output)
        total = _single_int(records, "total")
        individual = _single_int(records, "bound_individual")
        inclusion_exclusion = _single_int(records, "bound_inclusion_exclusion")
        shipped = sum(int(fields[1]) for fields in records.get("shipment", []))
        per_commodity = sum(int(fields[1]) for fields in records.get("commodity_value", []))
    except (ValueError, IndexError) as exc:
        return [f"solve output unreadable: {exc}"], {}
    problems = []
    if not total == shipped == per_commodity:
        problems.append(
            f"total {total}, shipment sum {shipped}, commodity sum {per_commodity} differ"
        )
    if not total <= inclusion_exclusion <= individual:
        problems.append(
            f"bounds out of order: total {total}, inclusion-exclusion"
            f" {inclusion_exclusion}, individual {individual}"
        )
    values = {
        "total": total,
        "bound_individual": individual,
        "bound_inclusion_exclusion": inclusion_exclusion,
    }
    return problems, values


def check_gap(code: int, output: str) -> tuple[list[str], dict]:
    """Checks on `mcflow gap --format structured`."""
    try:
        records = parse_records(output)
        heuristic = _single_int(records, "heuristic")
        optimum = _single_int(records, "optimum")
        individual = _single_int(records, "individual_sum")
        inclusion_exclusion = _single_int(records, "inclusion_exclusion")
        gap = _single_int(records, "gap")
        truncated_rows = records.get("truncated", [])
        if len(truncated_rows) != 1 or truncated_rows[0][0] not in ("true", "false"):
            raise ValueError("expected one 'truncated' record of true or false")
        truncated = truncated_rows[0][0] == "true"
    except (ValueError, IndexError) as exc:
        return [f"gap exited {code}, output unreadable: {exc}"], {}
    problems = []
    if code != (3 if truncated else 0):
        problems.append(f"gap exited {code} with truncated {str(truncated).lower()}")
    if gap != optimum - heuristic:
        problems.append(f"gap {gap} != optimum {optimum} - heuristic {heuristic}")
    if not heuristic <= inclusion_exclusion <= individual:
        problems.append(
            f"bounds out of order: heuristic {heuristic}, inclusion-exclusion"
            f" {inclusion_exclusion}, individual {individual}"
        )
    if not truncated and not heuristic <= optimum <= individual:
        problems.append(
            f"heuristic {heuristic} <= optimum {optimum} <= individual {individual} fails"
        )
    values = {
        "total": heuristic,
        "bound_individual": individual,
        "bound_inclusion_exclusion": inclusion_exclusion,
        "optimum": None if truncated else optimum,
        "truncated": truncated,
        "counterexample": not truncated and optimum > heuristic,
    }
    return problems, values


def check_recorded(values: dict, recorded: list | None) -> list[str]:
    """Compare with the values recorded at the seed commit.

    `recorded` is [greedy total, individual bound, inclusion-exclusion
    bound, proven optimum or None].  A change may prove an optimum that was
    not proven before; it may not change or lose a proven one.
    """
    if recorded is None:
        return []
    total, individual, inclusion_exclusion, optimum = recorded
    problems = []
    for name, want in (
        ("total", total),
        ("bound_individual", individual),
        ("bound_inclusion_exclusion", inclusion_exclusion),
    ):
        if values[name] != want:
            problems.append(f"{name} {values[name]} != recorded {want}")
    if optimum is not None and values.get("optimum") != optimum:
        problems.append(f"optimum {values.get('optimum')} != recorded proven {optimum}")
    return problems


def check_assignment(edges, commodities, assignment) -> list[str]:
    """Independent O(K*E) feasibility check of a greedy `Assignment`.

    `edges` is [(tail, head, capacity)] by edge id and `commodities` is
    [(index, source, sink)].  Checks capacity sharing, conservation at every
    node that is not the commodity's source or sink, declared values and
    totals, from one pass over the flow entries.
    """
    problems = []
    used = [0] * len(edges)
    balance: dict[tuple[int, str], int] = defaultdict(int)  # outflow - inflow
    endpoints = {index: (source, sink) for index, source, sink in commodities}
    for (commodity, eid), units in assignment.edge_flow.items():
        if commodity not in endpoints or not 0 <= eid < len(edges):
            return [f"flow entry ({commodity}, {eid}) names no commodity or edge"]
        if units < 0:
            problems.append(f"commodity {commodity}, edge {eid}: negative flow {units}")
        tail, head, _ = edges[eid]
        used[eid] += units
        balance[(commodity, tail)] += units
        balance[(commodity, head)] -= units
    for eid, (_, _, capacity) in enumerate(edges):
        if used[eid] > capacity:
            problems.append(f"edge {eid}: flow {used[eid]} exceeds capacity {capacity}")
    for (commodity, node), net_out in balance.items():
        if net_out and node not in endpoints[commodity]:
            problems.append(f"commodity {commodity}, node {node}: not conserved")
    for index, (source, _) in endpoints.items():
        declared = assignment.per_commodity_value.get(index, 0)
        if balance.get((index, source), 0) != declared:
            problems.append(f"commodity {index}: declared value {declared} not shipped")
    shipped = sum(amount for _, amount in assignment.shipments)
    if not assignment.total_value == shipped == sum(assignment.per_commodity_value.values()):
        problems.append("total differs from the shipments or the per-commodity values")
    return problems


def parse_text(text: str):
    """Edges and commodities of network text, for `check_assignment`."""
    edges, commodities = [], []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "edge":
            edges.append((parts[1], parts[2], int(parts[3])))
        elif parts and parts[0] == "commodity":
            commodities.append((len(commodities) + 1, parts[1], parts[2]))
    return edges, commodities
