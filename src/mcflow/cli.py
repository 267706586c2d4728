"""Command-line front end.

Every subcommand is listed once, with its options and its handler, in
_COMMANDS.  Each reads one network file (or - for standard input) and
writes its report to standard output, both UTF-8 under main() whatever
the locale; diagnostics go to standard error.

Exit codes: 0 success, 2 parse or usage error, unreadable input or a
report that cannot be written (standard output closed, as by `| head`, or
a full disk), 3 oracle truncation.

The structured format is one record per line, fields separated by tabs,
with repeated keys for list-valued data, so output is trivially machine
readable and byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from .heuristic import greedy_solve, intersection_terms, upper_bounds
from .maxflow import max_flow
from .netmodel import (
    Network,
    NetworkParseError,
    export_dot,
    parse_network,
    render_path,
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


def _read_input(source: str) -> str:
    if source == "-":
        if sys.stdin is None:  # Python's stand-in for a closed descriptor
            raise OSError("standard input is closed")
        return sys.stdin.read()
    with open(source, "r", encoding="utf-8") as handle:
        return handle.read()


def _error(message: str) -> int:
    """One diagnostic line to standard error (never to standard output); returns exit code 2."""
    if sys.stderr is not None:  # None when descriptor 2 was closed at start
        with contextlib.suppress(OSError):  # or closed since
            sys.stderr.write(f"error: {message}\n")
    return 2


def _print_rows(records: list[tuple]) -> None:
    """One tab-separated line per record; no records print nothing."""
    if records:
        print("\n".join("\t".join(str(field) for field in record) for record in records))


def _print_fields(fields: list[tuple[str, str, object]], structured: bool) -> None:
    """(record key, human label, value) triples, one line each."""
    print("\n".join(f"{k}\t{v}" if structured else f"{label}: {v}" for k, label, v in fields))


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _cmd_validate(net: Network, args: argparse.Namespace, structured: bool) -> int:
    """A parsed network is valid, so there is nothing left to report."""
    print("violations\t0" if structured else "ok")
    return 0


def _cmd_maxflow(net: Network, args: argparse.Namespace, structured: bool) -> int:
    try:
        com = net.commodity(args.commodity)
    except ValueError:
        return _error(
            f"no commodity with index {args.commodity} (network declares {len(net.commodities)})"
        )
    flow = max_flow(net, com)
    cut = flow.min_cut
    kept = set(cut.side)
    source_side = [v for v in net.nodes if (v in kept) == cut.side_is_source]
    if structured:
        records: list[tuple] = [
            ("commodity", com.index),
            ("source", com.source),
            ("sink", com.sink),
            ("value", flow.value),
            ("cut_capacity", cut.capacity),
        ]
        records += [("cut_node", v) for v in source_side]
        records += [
            ("cut_edge", e.id, e.tail, e.head, e.capacity) for e in cut.cut_edges
        ]
        records += [("edge_flow", e.id, flow.edge_flow.get(e.id, 0)) for e in net.edges]
        records += [
            ("path", p.label, p.bottleneck, render_path(net, p.edges)) for p in flow.paths
        ]
        _print_rows(records)
    else:
        print(f"commodity {com.index}: {com.source} -> {com.sink}")
        print(f"max flow value: {flow.value}")
        print(f"min cut: capacity {cut.capacity}, source side {{{' '.join(source_side)}}}")
        for e in cut.cut_edges:
            print(f"  cut edge e{e.id} {e.tail}->{e.head} capacity {e.capacity}")
        print("edge flows:")
        for e in net.edges:
            print(f"  e{e.id} {e.tail}->{e.head}: {flow.edge_flow.get(e.id, 0)}/{e.capacity}")
        print("decomposition:")
        for p in flow.paths:
            print(f"  {p.label}: {render_path(net, p.edges)} amount {p.bottleneck}")
    return 0


def _cmd_tables(net: Network, args: argparse.Namespace, structured: bool) -> int:
    """Print freshly built tables: residuals are still the capacities,
    every path is active and keeps its color on every edge it uses."""
    tables = build_tables(net)
    bottleneck = [min(net.edges[eid].capacity for eid in p.edges) for p in tables.paths]
    if structured:
        records: list[tuple] = [
            ("edge_color", e.id, color_name(p))
            for e in net.edges
            for p in tables.edge_paths.get(e.id, ())
        ]
        records += [("edge_residual", e.id, e.capacity) for e in net.edges]
        for path in tables.paths:
            for eid in path.edges:
                records.append(("path_edge", path.label, eid, net.edges[eid].capacity))
        records += [("path_bottleneck", p.label, n) for p, n in zip(tables.paths, bottleneck)]
        records += [
            ("path_color_count", p.label, n)
            for p, n in zip(tables.paths, tables.path_color_count)
        ]
        records += [("path_status", p.label, "active") for p in tables.paths]
        for com, flow in zip(net.commodities, tables.flows):
            cut = flow.min_cut
            records.append(("cut", com.index, cut.capacity))
            records += [("cut_edge", com.index, e.id) for e in cut.cut_edges]
            records.append(("commodity_flow", com.index, flow.value))
        _print_rows(records)
    else:
        edge_label = {
            e.id: f"e{e.id} {e.tail}->{e.head}" for e in net.edges
        }
        width = max((len(label) for label in edge_label.values()), default=0)
        print("EDGE COLORS")
        for e in net.edges:
            names = " ".join(color_name(p) for p in tables.edge_paths.get(e.id, ()))
            print(f"  {edge_label[e.id]:<{width}} | {names}")
        print("EDGE RESIDUAL CAPACITY")
        for e in net.edges:
            print(f"  {edge_label[e.id]:<{width}} | {e.capacity}")
        print("PATH RECORD")
        for path in tables.paths:
            edges = (net.edges[eid] for eid in path.edges)
            entry = " ".join(f"{e.tail}->{e.head}({e.capacity})" for e in edges)
            print(f"  {path.label} [active] | {entry}")
        print("PATH BOTTLENECK")
        for path, n in zip(tables.paths, bottleneck):
            print(f"  {path.label} | {n}")
        print("PATH COLOR COUNT")
        for path, n in zip(tables.paths, tables.path_color_count):
            print(f"  {path.label} | {n}")
        print("MIN CUTS")
        for com, flow in zip(net.commodities, tables.flows):
            edges = " ".join(f"{e.tail}->{e.head}" for e in flow.min_cut.cut_edges)
            print(f"  commodity {com.index} | capacity {flow.min_cut.capacity} | {edges}")
    return 0


def _cmd_solve(net: Network, args: argparse.Namespace, structured: bool) -> int:
    tables = build_tables(net)
    bounds = upper_bounds(tables)
    assignment = greedy_solve(tables)
    if structured:
        records: list[tuple] = [
            ("color_count", path.label, n)
            for path, n in zip(tables.paths, tables.path_color_count)
        ]
        records += [
            ("shipment", path.label, amount, render_path(net, path.edges))
            for path, amount in assignment.shipments
        ]
        records += [
            ("discarded", path.label, render_path(net, path.edges))
            for path in assignment.discarded
        ]
        records += [
            ("commodity_value", index, value)
            for index, value in assignment.per_commodity_value.items()
        ]
        records.append(("total", assignment.total_value))
        records.append(("bound_individual", bounds.individual_total))
        records.append(("bound_inclusion_exclusion", bounds.inclusion_exclusion))
        _print_rows(records)
    else:
        print("color counts:")
        for path, n in zip(tables.paths, tables.path_color_count):
            print(f"  {path.label}: {n}")
        print("shipments (in order):")
        for position, (path, amount) in enumerate(assignment.shipments, start=1):
            print(f"  {position}. {path.label} {render_path(net, path.edges)} amount {amount}")
        if assignment.discarded:
            print("discarded:")
            for path in assignment.discarded:
                print(f"  {path.label} {render_path(net, path.edges)}")
        print("totals:")
        for index, value in assignment.per_commodity_value.items():
            print(f"  commodity {index}: {value}")
        print(f"  total: {assignment.total_value}")
        print("upper bounds:")
        print(f"  individual max-flow sum: {bounds.individual_total}")
        print(f"  cut inclusion-exclusion: {bounds.inclusion_exclusion}")
    return 0


def _cmd_bound(net: Network, args: argparse.Namespace, structured: bool) -> int:
    """Cut sums, then each subset term as it is computed, then the bound:
    one term in memory at a time, whatever the number of commodities."""
    tables = build_tables(net)
    cuts = [flow.min_cut for flow in tables.flows]
    write = sys.stdout.write  # one call per line, and there are about 2^K
    if structured:
        for index, cut in enumerate(cuts, start=1):
            write(f"cut_sum\t{index}\t{cut.capacity}\n")
        for subset, value in intersection_terms(cuts):
            write(f"intersection\t{','.join(map(str, subset))}\t{value}\n")
        write(f"bound\t{upper_bounds(tables).inclusion_exclusion}\n")
    else:
        write("cut capacities:\n")
        for index, cut in enumerate(cuts, start=1):
            write(f"  commodity {index}: {cut.capacity}\n")
        if len(cuts) >= 2:
            write("intersection terms:\n")
        for subset, value in intersection_terms(cuts):
            write(f"  {{{','.join(map(str, subset))}}}: {value}\n")
        write(f"bound: {upper_bounds(tables).inclusion_exclusion}\n")
    return 0


def _cmd_oracle(net: Network, args: argparse.Namespace, structured: bool) -> int:
    result = optimal_value(net, max_paths=args.max_paths, max_candidates=args.max_candidates)
    if structured:
        records: list[tuple] = [
            ("path", p.commodity, p.ordinal, p.bottleneck, render_path(net, p.edges))
            for p in result.paths
        ]
        records += [
            ("witness", p.commodity, p.ordinal, amount)
            for p, amount in zip(result.paths, result.witness)
        ]
        _print_rows(records)
    elif result.paths:
        print("paths:")
        for path, amount in zip(result.paths, result.witness):
            print(
                f"  commodity {path.commodity} #{path.ordinal}:"
                f" {render_path(net, path.edges)}"
                f" carries {amount} (max {path.bottleneck})"
            )
    fields = [
        ("optimum", "optimum", result.optimum),
        ("explored", "explored", result.explored),
        ("truncated", "truncated", _bool(result.truncated)),
    ]
    _print_fields(fields, structured)
    return 3 if result.truncated else 0


def _cmd_gap(net: Network, args: argparse.Namespace, structured: bool) -> int:
    report = gap_report(net, max_paths=args.max_paths, max_candidates=args.max_candidates)
    fields = [
        ("heuristic", "greedy heuristic", report.heuristic_value),
        ("optimum", "oracle optimum", report.optimum),
        ("individual_sum", "individual max-flow sum", report.individual_total),
        ("inclusion_exclusion", "cut inclusion-exclusion", report.inclusion_exclusion),
        ("gap", "gap (optimum - heuristic)", report.gap),
        ("truncated", "truncated", _bool(report.truncated)),
    ]
    _print_fields(fields, structured)
    return 3 if report.truncated else 0


def _cmd_export(net: Network, args: argparse.Namespace, structured: bool) -> int:
    assignment = greedy_solve(build_tables(net)) if args.assignment else None
    sys.stdout.write(export_dot(net, assignment))
    return 0


# The output style, for every subcommand but export (its DOT text has one form).
_FORMAT = (
    "--format",
    dict(choices=("human", "structured"), default="human", help="output style (default: human)"),
)

# The oracle's limits, shared by oracle and gap.
_LIMITS = [
    ("--max-paths", {"type": _budget, "default": DEFAULT_MAX_PATHS}),
    ("--max-candidates", {"type": _budget, "default": DEFAULT_MAX_CANDIDATES}),
]

# Each subcommand: its help text, its own options and its handler.
_COMMANDS = {
    "validate": ("check the network invariants", [_FORMAT], _cmd_validate),
    "maxflow": (
        "single-commodity max flow, min cut, and decomposition",
        [
            _FORMAT,
            ("--commodity", {"type": int, "required": True, "help": "1-based commodity index"}),
        ],
        _cmd_maxflow,
    ),
    "tables": ("build and print the five selection tables", [_FORMAT], _cmd_tables),
    "solve": ("run the greedy multicommodity heuristic", [_FORMAT], _cmd_solve),
    "bound": ("cut-intersection upper bound report", [_FORMAT], _cmd_bound),
    "oracle": ("exact optimum by exhaustive path-flow search", [_FORMAT, *_LIMITS], _cmd_oracle),
    "gap": ("greedy heuristic vs exact oracle comparison", [_FORMAT, *_LIMITS], _cmd_gap),
    "export": (
        "Graphviz DOT export",
        [
            (
                "--assignment",
                {"action": "store_true", "help": "overlay the greedy flow on the edge labels"},
            )
        ],
        _cmd_export,
    ),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use rather than at import."""
    parser = argparse.ArgumentParser(
        prog="mcflow",
        description="Multicommodity max-flow heuristic over capacitated networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="network file, or - for standard input")
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(handler=handler)
    return parser


def run(argv: list[str]) -> int:
    """Parse arguments, read the network, run its handler; returns the exit code."""
    args = _parser().parse_args(argv)
    try:
        net = parse_network(_read_input(args.input))
    except (OSError, UnicodeDecodeError, NetworkParseError) as exc:
        return _error(str(exc))
    return args.handler(net, args, getattr(args, "format", None) == "structured")


def main(argv: list[str] | None = None) -> int:
    if sys.stdout is None:  # closed: the report cannot be written
        return _error("standard output is closed")
    for stream in filter(None, (sys.stdin, sys.stdout, sys.stderr)):  # None when closed
        # Networks, reports and diagnostics are UTF-8 whatever the locale;
        # diagnostics still escape what UTF-8 cannot encode.
        errors = "backslashreplace" if stream is sys.stderr else "strict"
        stream.reconfigure(encoding="utf-8", errors=errors)
    try:
        code = run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()  # a closed pipe or a full disk raises here, not at exit
    except OSError as exc:
        # Point stdout at devnull so the flush at interpreter exit does not
        # raise again.  A reader that left early (`| head`) needs no word.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2 if isinstance(exc, BrokenPipeError) else _error(f"cannot write the report: {exc}")
    return code
