"""Command-line front end.

Subcommands: validate, maxflow, tables, solve, bound, oracle, gap, export.
Every subcommand reads one network file (or - for standard input) and
writes its report to standard output; diagnostics go to standard error.

Exit codes: 0 success, 1 network fails validation, 2 parse or usage error
or unreadable input (also when standard output is closed before the report
is written, as by `| head`), 3 oracle truncation.

The structured format is one record per line, fields separated by tabs,
with repeated keys for list-valued data, so output is trivially machine
readable and byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .heuristic import greedy_solve, inclusion_exclusion_bound, upper_bounds
from .maxflow import max_flow
from .netmodel import (
    Commodity,
    Network,
    NetworkParseError,
    export_dot,
    parse_network,
    render_path,
    validate_network,
)
from .oracle import (
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_MAX_PATHS,
    gap_report,
    optimal_value,
)
from .tables import build_tables, color_name

__all__ = ["main", "run"]


def _budget(text: str) -> int:
    """An oracle limit: a non-negative integer, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use rather than at import."""
    parser = argparse.ArgumentParser(
        prog="mcflow",
        description="Multicommodity max-flow heuristic over capacitated networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="network file, or - for standard input")
        p.add_argument(
            "--format",
            choices=("human", "structured"),
            default="human",
            help="output style (default: human)",
        )
        return p

    add("validate", "check the network invariants")
    p = add("maxflow", "single-commodity max flow, min cut, and decomposition")
    p.add_argument("--commodity", type=int, required=True, help="1-based commodity index")
    add("tables", "build and print the five selection tables")
    add("solve", "run the greedy multicommodity heuristic")
    add("bound", "cut-intersection upper bound report")
    p = add("oracle", "exact optimum by exhaustive path-flow search")
    p.add_argument("--max-paths", type=_budget, default=DEFAULT_MAX_PATHS)
    p.add_argument("--max-candidates", type=_budget, default=DEFAULT_MAX_CANDIDATES)
    p = add("gap", "greedy heuristic vs exact oracle comparison")
    p.add_argument("--max-paths", type=_budget, default=DEFAULT_MAX_PATHS)
    p.add_argument("--max-candidates", type=_budget, default=DEFAULT_MAX_CANDIDATES)
    p = add("export", "Graphviz DOT export")
    p.add_argument(
        "--assignment",
        action="store_true",
        help="overlay the greedy flow on the edge labels",
    )
    return parser


def _read_input(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    with open(source, "r", encoding="utf-8") as handle:
        return handle.read()


def _rows(records: list[tuple]) -> str:
    return "\n".join("\t".join(str(field) for field in record) for record in records)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _cmd_validate(net: Network, problems: list[str], structured: bool) -> int:
    if structured:
        records: list[tuple] = [("violations", len(problems))]
        records += [("violation", text) for text in problems]
        print(_rows(records))
    elif problems:
        for text in problems:
            print(text)
    else:
        print("ok")
    return 1 if problems else 0


def _cmd_maxflow(net: Network, com: Commodity, structured: bool) -> int:
    flow = max_flow(net, com.source, com.sink, commodity=com.index)
    cut = flow.min_cut
    if structured:
        records: list[tuple] = [
            ("commodity", com.index),
            ("source", com.source),
            ("sink", com.sink),
            ("value", flow.value),
            ("cut_capacity", cut.capacity),
        ]
        records += [("cut_node", v) for v in net.nodes if v in cut.source_side]
        records += [
            ("cut_edge", e.id, e.tail, e.head, e.capacity) for e in cut.cut_edges
        ]
        records += [("edge_flow", e.id, flow.edge_flow[e.id]) for e in net.edges]
        records += [
            ("path", p.label, p.bottleneck, render_path(net, p.edges)) for p in flow.paths
        ]
        print(_rows(records))
    else:
        print(f"commodity {com.index}: {com.source} -> {com.sink}")
        print(f"max flow value: {flow.value}")
        side = " ".join(v for v in net.nodes if v in cut.source_side)
        print(f"min cut: capacity {cut.capacity}, source side {{{side}}}")
        for e in cut.cut_edges:
            print(f"  cut edge e{e.id} {e.tail}->{e.head} capacity {e.capacity}")
        print("edge flows:")
        for e in net.edges:
            print(f"  e{e.id} {e.tail}->{e.head}: {flow.edge_flow[e.id]}/{e.capacity}")
        print("decomposition:")
        for p in flow.paths:
            print(f"  {p.label}: {render_path(net, p.edges)} amount {p.bottleneck}")
    return 0


def _cmd_tables(net: Network, structured: bool) -> int:
    tables = build_tables(net)
    if structured:
        records: list[tuple] = []
        for edge in net.edges:
            for cid in sorted(tables.edge_colors[edge.id]):
                records.append(("edge_color", edge.id, color_name(cid)))
        records += [
            ("edge_residual", e.id, tables.edge_residual[e.id]) for e in net.edges
        ]
        for path in tables.paths:
            for eid in path.edges:
                records.append(("path_edge", path.label, eid, net.edges[eid].capacity))
        for position, path in enumerate(tables.paths):
            records.append(("path_bottleneck", path.label, tables.path_bottleneck[position]))
        for position, path in enumerate(tables.paths):
            records.append(
                ("path_color_count", path.label, tables.path_color_count[position])
            )
        for position, path in enumerate(tables.paths):
            records.append(("path_status", path.label, tables.path_status[position]))
        for com in net.commodities:
            cut = tables.cuts[com.index]
            records.append(("cut", com.index, cut.capacity))
            records += [("cut_edge", com.index, e.id) for e in cut.cut_edges]
            records.append(("commodity_flow", com.index, tables.commodity_value[com.index]))
        print(_rows(records))
    else:
        edge_label = {
            e.id: f"e{e.id} {e.tail}->{e.head}" for e in net.edges
        }
        width = max((len(label) for label in edge_label.values()), default=0)
        print("EDGE COLORS")
        for e in net.edges:
            names = " ".join(color_name(p) for p in sorted(tables.edge_colors[e.id]))
            print(f"  {edge_label[e.id]:<{width}} | {names}")
        print("EDGE RESIDUAL CAPACITY")
        for e in net.edges:
            print(f"  {edge_label[e.id]:<{width}} | {tables.edge_residual[e.id]}")
        print("PATH RECORD")
        for position, path in enumerate(tables.paths):
            edges = (net.edges[eid] for eid in path.edges)
            entry = " ".join(f"{e.tail}->{e.head}({e.capacity})" for e in edges)
            print(f"  {path.label} [{tables.path_status[position]}] | {entry}")
        print("PATH BOTTLENECK")
        for position, path in enumerate(tables.paths):
            print(f"  {path.label} | {tables.path_bottleneck[position]}")
        print("PATH COLOR COUNT")
        for position, path in enumerate(tables.paths):
            print(f"  {path.label} | {tables.path_color_count[position]}")
        print("MIN CUTS")
        for com in net.commodities:
            cut = tables.cuts[com.index]
            edges = " ".join(f"{e.tail}->{e.head}" for e in cut.cut_edges)
            print(f"  commodity {com.index} | capacity {cut.capacity} | {edges}")
    return 0


def _cmd_solve(net: Network, structured: bool) -> int:
    tables = build_tables(net)
    bounds = upper_bounds(tables)
    initial_counts = [
        (path.label, tables.path_color_count[position])
        for position, path in enumerate(tables.paths)
    ]
    assignment = greedy_solve(tables)
    if structured:
        records: list[tuple] = [("color_count", label, n) for label, n in initial_counts]
        records += [
            ("shipment", path.label, amount, render_path(net, path.edges))
            for path, amount in assignment.shipments
        ]
        records += [
            ("discarded", path.label, render_path(net, path.edges))
            for path in assignment.discarded
        ]
        records += [
            ("commodity_value", com.index, assignment.per_commodity_value[com.index])
            for com in net.commodities
        ]
        records.append(("total", assignment.total_value))
        records.append(("bound_individual", bounds.individual_total))
        records.append(("bound_inclusion_exclusion", bounds.inclusion_exclusion))
        print(_rows(records))
    else:
        print("color counts:")
        for label, n in initial_counts:
            print(f"  {label}: {n}")
        print("shipments (in order):")
        for position, (path, amount) in enumerate(assignment.shipments, start=1):
            print(f"  {position}. {path.label} {render_path(net, path.edges)} amount {amount}")
        if assignment.discarded:
            print("discarded:")
            for path in assignment.discarded:
                print(f"  {path.label} {render_path(net, path.edges)}")
        print("totals:")
        for com in net.commodities:
            print(f"  commodity {com.index}: {assignment.per_commodity_value[com.index]}")
        print(f"  total: {assignment.total_value}")
        print("upper bounds:")
        print(f"  individual max-flow sum: {bounds.individual_total}")
        print(f"  cut inclusion-exclusion: {bounds.inclusion_exclusion}")
    return 0


def _cmd_bound(net: Network, structured: bool) -> int:
    tables = build_tables(net)
    report = inclusion_exclusion_bound(
        [tables.cuts[com.index] for com in net.commodities]
    )
    if structured:
        records: list[tuple] = [
            ("cut_sum", index, value)
            for index, value in report.individual_cut_sums.items()
        ]
        records += [
            ("intersection", ",".join(str(i) for i in subset), value)
            for subset, value in report.intersection_terms.items()
            if len(subset) >= 2
        ]
        records.append(("bound", report.bound))
        print(_rows(records))
    else:
        print("cut capacities:")
        for index, value in report.individual_cut_sums.items():
            print(f"  commodity {index}: {value}")
        pairs_up = [s for s in report.intersection_terms if len(s) >= 2]
        if pairs_up:
            print("intersection terms:")
            for subset in pairs_up:
                joined = ",".join(str(i) for i in subset)
                print(f"  {{{joined}}}: {report.intersection_terms[subset]}")
        print(f"bound: {report.bound}")
    return 0


def _cmd_oracle(net: Network, max_paths: int, max_candidates: int, structured: bool) -> int:
    result = optimal_value(net, max_paths=max_paths, max_candidates=max_candidates)
    if structured:
        records: list[tuple] = [
            ("path", p.commodity, p.ordinal, p.bottleneck, render_path(net, p.edges))
            for p in result.paths
        ]
        records += [
            ("witness", p.commodity, p.ordinal, amount)
            for p, amount in zip(result.paths, result.witness)
        ]
        records.append(("optimum", result.optimum))
        records.append(("explored", result.explored))
        records.append(("truncated", _bool(result.truncated)))
        print(_rows(records))
    else:
        if result.paths:
            print("paths:")
            for path, amount in zip(result.paths, result.witness):
                print(
                    f"  commodity {path.commodity} #{path.ordinal}:"
                    f" {render_path(net, path.edges)}"
                    f" carries {amount} (max {path.bottleneck})"
                )
        print(f"optimum: {result.optimum}")
        print(f"explored: {result.explored}")
        print(f"truncated: {_bool(result.truncated)}")
    return 3 if result.truncated else 0


def _cmd_gap(net: Network, max_paths: int, max_candidates: int, structured: bool) -> int:
    report = gap_report(net, max_paths=max_paths, max_candidates=max_candidates)
    if structured:
        records: list[tuple] = [
            ("heuristic", report.heuristic_value),
            ("optimum", report.optimum),
            ("individual_sum", report.individual_total),
            ("inclusion_exclusion", report.inclusion_exclusion),
            ("gap", report.gap),
            ("truncated", _bool(report.truncated)),
        ]
        print(_rows(records))
    else:
        print(f"greedy heuristic: {report.heuristic_value}")
        print(f"oracle optimum: {report.optimum}")
        print(f"individual max-flow sum: {report.individual_total}")
        print(f"cut inclusion-exclusion: {report.inclusion_exclusion}")
        print(f"gap (optimum - heuristic): {report.gap}")
        print(f"truncated: {_bool(report.truncated)}")
    return 3 if report.truncated else 0


def _cmd_export(net: Network, with_assignment: bool) -> int:
    assignment = None
    if with_assignment:
        assignment = greedy_solve(build_tables(net))
    sys.stdout.write(export_dot(net, assignment))
    return 0


def run(argv: list[str]) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    args = _parser().parse_args(argv)
    try:
        text = _read_input(args.input)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        net = parse_network(text)
    except NetworkParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = validate_network(net)
    structured = getattr(args, "format", "human") == "structured"
    if args.command == "validate":
        return _cmd_validate(net, problems, structured)
    if problems:
        for text_line in problems:
            print(f"error: {text_line}", file=sys.stderr)
        return 1
    if args.command == "maxflow":
        try:
            com = net.commodity(args.commodity)
        except ValueError:
            print(
                f"error: no commodity with index {args.commodity}"
                f" (network declares {len(net.commodities)})",
                file=sys.stderr,
            )
            return 2
        return _cmd_maxflow(net, com, structured)
    if args.command == "tables":
        return _cmd_tables(net, structured)
    if args.command == "solve":
        return _cmd_solve(net, structured)
    if args.command == "bound":
        return _cmd_bound(net, structured)
    if args.command == "oracle":
        return _cmd_oracle(net, args.max_paths, args.max_candidates, structured)
    if args.command == "gap":
        return _cmd_gap(net, args.max_paths, args.max_candidates, structured)
    if args.command == "export":
        return _cmd_export(net, args.assignment)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    try:
        code = run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # The reader left early.  Point stdout at devnull so the flush at
        # interpreter exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 2
    return code
