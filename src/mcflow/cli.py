"""Command-line front end.

Every subcommand is listed once, with its options and its handler, in
_COMMANDS.  Each reads one network file (or - for standard input) and
writes its report to standard output, both UTF-8 under main() whatever
the locale; diagnostics go to standard error.

Exit codes: 0 success, 2 parse or usage error, unreadable input or a
report that cannot be written (standard output closed, as by `| head`, or
a full disk), 3 the exact search gave up (its pivot budget or its size
ceiling) before it proved the optimum.

The structured format is one record per line, fields separated by tabs,
with repeated keys for list-valued data, so output is trivially machine
readable and byte-for-byte reproducible.

A handler returns its exit code and its report as one list of rows, each
`(record, line)`: `record` is the structured tuple, or None for a
human-only heading; `line` is the human text, or None for a record with no
line of its own.  run() prints one half of every row, so each report walks
its data once for both styles.  Each human half is written `human and
f"..."`, so a structured run formats no human text, and export's DOT text,
which has one form, is a human-only row per line.  Only bound writes its own
output and returns no rows: it streams its 2^K - K - 1 subset terms.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from .heuristic import export_dot, greedy_solve, intersection_terms, upper_bounds
from .maxflow import max_flow
from .netmodel import Network, NetworkParseError, parse_network, render_path
from .oracle import DEFAULT_MAX_CANDIDATES, gap_report, optimal_value
from .tables import build_tables, color_name

__all__ = ["main", "run"]


def _budget(text: str) -> int:
    """A pivot budget: a non-negative integer, else a usage error."""
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


def _fields(human: bool, fields: list[tuple[str, str, object]]) -> list[tuple]:
    """(record key, human label, value) triples as rows, one line each."""
    return [((key, value), human and f"{label}: {value}") for key, label, value in fields]


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _cmd_validate(net: Network, args: argparse.Namespace, human: bool) -> tuple[int, list]:
    """A parsed network is valid, so there is nothing left to report."""
    return 0, [(("violations", 0), "ok")]


def _cmd_maxflow(net: Network, args: argparse.Namespace, human: bool) -> tuple[int, list]:
    try:
        com = net.commodity(args.commodity)
    except ValueError as exc:
        return _error(str(exc)), []
    flow = max_flow(net, com)
    cut = flow.min_cut
    side = cut.source_side
    return 0, [
        (("commodity", com.index), human and f"commodity {com.index}: {com.source} -> {com.sink}"),
        (("source", com.source), None),
        (("sink", com.sink), None),
        (("value", flow.value), human and f"max flow value: {flow.value}"),
        (("cut_capacity", cut.capacity),
         human and f"min cut: capacity {cut.capacity}, source side {{{' '.join(side)}}}"),
        *((("cut_node", v), None) for v in side),
        *((("cut_edge", e.id, e.tail, e.head, e.capacity),
           human and f"  cut edge e{e.id} {e.tail}->{e.head} capacity {e.capacity}")
          for e in cut.cut_edges),
        (None, "edge flows:"),
        *((("edge_flow", e.id, amount := flow.edge_flow.get(e.id, 0)),
           human and f"  e{e.id} {e.tail}->{e.head}: {amount}/{e.capacity}")
          for e in net.edges),
        (None, "decomposition:"),
        *((("path", p.label, p.bottleneck, text := render_path(net, p.edges)),
           human and f"  {p.label}: {text} amount {p.bottleneck}")
          for p in flow.paths),
    ]


def _cmd_tables(net: Network, args: argparse.Namespace, human: bool) -> tuple[int, list]:
    """Freshly built tables: residuals are still the capacities, every
    path is active and keeps its color on every edge it uses."""
    tables = build_tables(net)
    bottleneck = [min(net.edges[eid].capacity for eid in p.edges) for p in tables.paths]
    label = {e.id: f"e{e.id} {e.tail}->{e.head}" for e in net.edges} if human else {}
    width = max(map(len, label.values()), default=0)
    rows: list[tuple] = [(None, "EDGE COLORS")]
    for e in net.edges:
        paths = tables.edge_paths.get(e.id, ())
        names = human and " ".join(map(color_name, paths))
        rows.append((None, human and f"  {label[e.id]:<{width}} | {names}"))
        rows += [(("edge_color", e.id, color_name(p)), None) for p in paths]
    rows.append((None, "EDGE RESIDUAL CAPACITY"))
    rows += [
        (("edge_residual", e.id, e.capacity), human and f"  {label[e.id]:<{width}} | {e.capacity}")
        for e in net.edges
    ]
    rows.append((None, "PATH RECORD"))
    for path in tables.paths:
        edges = [net.edges[eid] for eid in path.edges]
        entry = human and " ".join(f"{e.tail}->{e.head}({e.capacity})" for e in edges)
        rows.append((None, human and f"  {path.label} [active] | {entry}"))
        rows += [(("path_edge", path.label, e.id, e.capacity), None) for e in edges]
    rows.append((None, "PATH BOTTLENECK"))
    rows += [(("path_bottleneck", p.label, n), human and f"  {p.label} | {n}")
             for p, n in zip(tables.paths, bottleneck)]
    rows.append((None, "PATH COLOR COUNT"))
    rows += [(("path_color_count", p.label, n), human and f"  {p.label} | {n}")
             for p, n in zip(tables.paths, tables.path_color_count)]
    rows += [(("path_status", p.label, "active"), None) for p in tables.paths]
    rows.append((None, "MIN CUTS"))
    for com, flow in zip(net.commodities, tables.flows):
        cut = flow.min_cut
        edges = human and " ".join(f"{e.tail}->{e.head}" for e in cut.cut_edges)
        line = human and f"  commodity {com.index} | capacity {cut.capacity} | {edges}"
        rows.append((("cut", com.index, cut.capacity), line))
        rows += [(("cut_edge", com.index, e.id), None) for e in cut.cut_edges]
        rows.append((("commodity_flow", com.index, flow.value), None))
    return 0, rows


def _cmd_solve(net: Network, args: argparse.Namespace, human: bool) -> tuple[int, list]:
    tables = build_tables(net)
    bounds = upper_bounds(tables)
    assignment = greedy_solve(tables)
    return 0, [
        (None, "color counts:"),
        *((("color_count", p.label, n), human and f"  {p.label}: {n}")
          for p, n in zip(tables.paths, tables.path_color_count)),
        (None, "shipments (in order):"),
        *((("shipment", p.label, amount, text := render_path(net, p.edges)),
           human and f"  {position}. {p.label} {text} amount {amount}")
          for position, (p, amount) in enumerate(assignment.shipments, start=1)),
        (None, "discarded:" if assignment.discarded else None),
        *((("discarded", p.label, text := render_path(net, p.edges)),
           human and f"  {p.label} {text}")
          for p in assignment.discarded),
        (None, "totals:"),
        *((("commodity_value", index, value), human and f"  commodity {index}: {value}")
          for index, value in assignment.per_commodity_value.items()),
        (("total", assignment.total_value), human and f"  total: {assignment.total_value}"),
        (None, "upper bounds:"),
        *_fields(human, [
            ("bound_individual", "  individual max-flow sum", bounds.individual_total),
            ("bound_inclusion_exclusion", "  cut inclusion-exclusion", bounds.inclusion_exclusion),
        ]),
    ]


def _cmd_bound(net: Network, args: argparse.Namespace, human: bool) -> tuple[int, list]:
    """Cut sums, then each subset term as it is computed, then the bound:
    one term in memory at a time, whatever the number of commodities.

    It writes its own lines and returns no rows.  There are 2^K - K - 1
    terms: rows would hold them all at once, and on 2^18 terms formatting
    one row per term took 1.7 times as long structured, and 2.3 times
    human, as one f-string per line."""
    tables = build_tables(net)
    cuts = [flow.min_cut for flow in tables.flows]
    write = sys.stdout.write  # one call per line, and there are about 2^K
    if human:
        sep, cut_line, term_line, term_sep = ": ", "  commodity ", "  {", "}: "
        write("cut capacities:\n")
    else:
        sep, cut_line, term_line, term_sep = "\t", "cut_sum\t", "intersection\t", "\t"
    for index, cut in enumerate(cuts, start=1):
        write(f"{cut_line}{index}{sep}{cut.capacity}\n")
    if human and len(cuts) >= 2:
        write("intersection terms:\n")
    for subset, value in intersection_terms(cuts):
        write(f"{term_line}{','.join(map(str, subset))}{term_sep}{value}\n")
    write(f"bound{sep}{upper_bounds(tables).inclusion_exclusion}\n")
    return 0, []


def _cmd_oracle(net: Network, args: argparse.Namespace, human: bool) -> tuple[int, list]:
    result = optimal_value(net, max_candidates=args.max_candidates)
    return 3 if result.truncated else 0, [
        (None, "witness:" if result.witness.shipments else None),
        *((("witness", p.commodity, p.ordinal, amount, text := render_path(net, p.edges)),
           human and f"  commodity {p.commodity} #{p.ordinal}: {text} carries {amount}")
          for p, amount in result.witness.shipments),
        *_fields(human, [
            ("optimum", "optimum", result.optimum),
            ("explored", "explored", result.explored),
            ("truncated", "truncated", _bool(result.truncated)),
        ]),
    ]


def _cmd_gap(net: Network, args: argparse.Namespace, human: bool) -> tuple[int, list]:
    report = gap_report(net, max_candidates=args.max_candidates)
    return 3 if report.truncated else 0, _fields(human, [
        ("heuristic", "greedy heuristic", report.heuristic_value),
        ("optimum", "oracle optimum", report.optimum),
        ("individual_sum", "individual max-flow sum", report.individual_total),
        ("inclusion_exclusion", "cut inclusion-exclusion", report.inclusion_exclusion),
        ("gap", "gap (optimum - heuristic)", report.gap),
        ("truncated", "truncated", _bool(report.truncated)),
    ])


def _cmd_export(net: Network, args: argparse.Namespace, human: bool) -> tuple[int, list]:
    """The DOT text has one form: a human-only row per line."""
    assignment = greedy_solve(build_tables(net)) if args.assignment else None
    return 0, [(None, line) for line in export_dot(net, assignment).splitlines()]


# The output style, for every subcommand but export (its DOT text has one form).
_FORMAT = (
    "--format",
    dict(choices=("human", "structured"), default="human", help="output style (default: human)"),
)

# The exact search's budget, shared by oracle and gap.
_BUDGET = (
    "--max-candidates",
    dict(type=_budget, default=DEFAULT_MAX_CANDIDATES, help="most simplex pivots to spend"),
)

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
    "oracle": ("exact optimum by LP branch and bound", [_FORMAT, _BUDGET], _cmd_oracle),
    "gap": ("greedy heuristic vs exact optimum comparison", [_FORMAT, _BUDGET], _cmd_gap),
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


class _Parser(argparse.ArgumentParser):
    """A parser whose help text, like every report, raises when it cannot be
    written (argparse's own print_help swallows the OSError).  It flushes,
    so the error comes before the help action's exit, not at shutdown."""

    def print_help(self, file=None):
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use rather than at import."""
    parser = _Parser(
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
    """Parse arguments, read the network, run its handler and print one half
    of each row it returns; returns the exit code."""
    args = _parser().parse_args(argv)
    try:
        net = parse_network(_read_input(args.input))
    except (OSError, UnicodeDecodeError, NetworkParseError) as exc:
        return _error(str(exc))
    human = getattr(args, "format", None) != "structured"
    code, rows = args.handler(net, args, human)
    if human:
        lines = [line for _, line in rows if line is not None]
    else:
        lines = ["\t".join(map(str, record)) for record, _ in rows if record is not None]
    if lines:
        print("\n".join(lines))
    return code


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
