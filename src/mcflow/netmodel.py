"""Network data model: text parsing, validation, rendering, and DOT export.

The text format is line oriented, UTF-8, one directive per line:

    # comment                        ignored, as are blank lines
    node <name>                      name: printable, no whitespace
    edge <tail> <head> <capacity>    capacity: at most 4000 ASCII digits
    commodity <source> <sink>

Every node must be declared before the first edge or commodity line that
references it.  Edge ids are dense, 0..p-1, in declaration order; commodity
indices are 1-based, also in declaration order.  Parallel edges are legal,
self-loops are not, and zero-capacity edges are allowed.  A parsed network's
edges and commodities refer to the declared name objects, so each is held once.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import count, repeat
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .heuristic import Assignment

__all__ = [
    "Commodity",
    "Edge",
    "Network",
    "NetworkParseError",
    "export_dot",
    "parse_network",
    "render_path",
]


class NetworkParseError(ValueError):
    """Malformed network text; `line` is the 1-based offending line."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


@dataclass(frozen=True, slots=True)
class Edge:
    """Directed edge with a nonnegative integer capacity."""

    id: int
    tail: str
    head: str
    capacity: int


@dataclass(frozen=True, slots=True)
class Commodity:
    """A (source, sink) demand pair; `index` is 1-based."""

    index: int
    source: str
    sink: str


class _Arcs(NamedTuple):
    """A network as numbered residual arcs.

    Arc 2*e is edge e traversed forward and arc 2*e+1 the same edge
    backward, so `a ^ 1` is an arc's reverse.  `index` numbers the nodes
    in declaration order; `out[v]` lists the arcs leaving node v as
    (arc, other end): its forward arcs first, then its backward arcs, each
    group in edge-id order, which is the search tie-break.  `capacity[e]`
    is edge e's capacity.
    """

    index: dict[str, int]
    # Pairs: bare arcs that look their other end up in a per-arc array
    # measured 3 % slower on large_solve.
    out: tuple[tuple[tuple[int, int], ...], ...]
    capacity: tuple[int, ...]


@dataclass(frozen=True)
class Network:
    """Immutable directed network with an ordered commodity list.

    Every Network is structurally sound: construction raises ValueError
    ("invalid network: ...", one message per violated invariant) otherwise.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    commodities: tuple[Commodity, ...]

    def __post_init__(self) -> None:
        problems = _violations(self)
        if problems:
            raise ValueError("invalid network: " + "; ".join(problems))

    @cached_property
    def arcs(self) -> _Arcs:
        """The network as integer residual arcs, for max flow, decomposition
        and path enumeration.  Built on first use and shared by every
        caller, so treat it as read-only."""
        index = {name: number for number, name in enumerate(self.nodes)}
        tails = [index[edge.tail] for edge in self.edges]
        heads = [index[edge.head] for edge in self.edges]
        out: list[list[tuple[int, int]]] = [[] for _ in self.nodes]
        # Edge ids are dense, so edge e's forward arc is 2*e.  All forward
        # arcs go in before any backward arc.
        for u, forward in zip(tails, zip(count(0, 2), heads)):
            out[u].append(forward)
        for w, backward in zip(heads, zip(count(1, 2), tails)):
            out[w].append(backward)
        return _Arcs(
            index,
            tuple(map(tuple, out)),
            tuple([edge.capacity for edge in self.edges]),
        )

    def commodity(self, index: int) -> Commodity:
        if not 1 <= index <= len(self.commodities):
            raise ValueError(f"no commodity with index {index}")
        return self.commodities[index - 1]


_DIRECTIVE_ARITY = {"node": 2, "edge": 4, "commodity": 3}
# Every reported total is then at most K * E * 10**4000, which str() can
# still print under the interpreter's default limit of 4300 digits; under a
# lowered limit, a capacity keeps 300 digits below it.
_MAX_CAPACITY_DIGITS = 4000
# A diagnostic echoes at most this many characters of a token.
_ECHO_CHARS = 64
# Edge's slot descriptors, in field order.  Writing through them skips the
# object.__setattr__ call per field of a frozen dataclass's __init__.
_EDGE_SLOTS = tuple(Edge.__dict__[field.name].__set__ for field in fields(Edge))


def parse_network(text: str) -> Network:
    """Parse network text; raises NetworkParseError with a line number.

    A sound line passes a few cheap tests, and any other goes to
    `_line_error` to be worded.  Those tests reject everything Network's
    own check would, so accepted text never raises anything else.
    """
    declared: dict[str, str] = {}  # each node name to itself, in declaration order
    tails: list[str] = []
    heads: list[str] = []
    capacities: list[int] = []
    commodities: list[Commodity] = []
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    most_digits = min(_MAX_CAPACITY_DIGITS, limit - 300) if limit else _MAX_CAPACITY_DIGITS

    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if len(parts) == 4 and parts[0] == "edge":
            tail, head, capacity = declared.get(parts[1]), declared.get(parts[2]), parts[3]
            if tail and head and tail is not head:
                # isascii: int() would also take non-ASCII digits.
                if capacity.isdigit() and capacity.isascii() and len(capacity) <= most_digits:
                    tails.append(tail)
                    heads.append(head)
                    capacities.append(int(capacity))
                    continue
        elif len(parts) == 2 and parts[0] == "node":
            if parts[1].isprintable() and parts[1] not in declared:
                declared[parts[1]] = parts[1]
                continue
        elif len(parts) == 3 and parts[0] == "commodity":
            source, sink = declared.get(parts[1]), declared.get(parts[2])
            if source and sink and source is not sink:
                commodities.append(Commodity(len(commodities) + 1, source, sink))
                continue
        elif not parts or parts[0].startswith("#"):  # blank or comment
            continue
        raise _line_error(lineno, parts, declared, most_digits)

    end = max(len(lines), 1)
    if not tails:
        raise NetworkParseError(end, "no edges declared")
    if not commodities:
        raise NetworkParseError(end, "no commodities declared")
    edges = list(map(object.__new__, repeat(Edge, len(tails))))
    columns = (range(len(tails)), tails, heads, capacities)
    for write, column in zip(_EDGE_SLOTS, columns):  # one field at a time, over all edges
        deque(map(write, edges, column), maxlen=0)
    return Network(tuple(declared), tuple(edges), tuple(commodities))


def _echo(token: str, show=repr) -> str:
    """show(token), or past _ECHO_CHARS characters, show() of its start, then its length."""
    long = len(token) > _ECHO_CHARS
    return f"{show(token[:_ECHO_CHARS] + '…')} ({len(token)} characters)" if long else show(token)


def _line_error(line: int, parts: list[str], declared: dict, most_digits: int) -> NetworkParseError:
    """The first fault of a line that failed parse_network's tests, in the
    order directive, arity, node name, endpoints, capacity and self-loop."""
    directive = parts[0]
    arity = _DIRECTIVE_ARITY.get(directive)
    if arity is None:
        return NetworkParseError(line, f"unknown directive {_echo(directive)}")
    if len(parts) != arity:
        return NetworkParseError(
            line, f"{directive!r} expects {arity - 1} arguments, got {len(parts) - 1}"
        )
    if directive == "node":  # an unprintable name, or else one declared before
        name = _echo(parts[1])
        if not parts[1].isprintable():
            return NetworkParseError(line, f"node name {name} contains unprintable characters")
        return NetworkParseError(line, f"duplicate node name {name}")
    for endpoint in parts[1:3]:  # an edge's or a commodity's two ends
        if endpoint not in declared:
            return NetworkParseError(line, f"{directive} endpoint {_echo(endpoint)} not declared")
    if directive == "commodity":
        return NetworkParseError(line, "commodity source equals sink")
    tail, capacity = parts[1], parts[3]
    # int() would also take "+5", "1_0" and non-ASCII digits.
    digits = capacity.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        return NetworkParseError(line, f"capacity {_echo(capacity)} is not an integer")
    if capacity.startswith("-"):
        return NetworkParseError(line, f"negative capacity {_echo(capacity, str)}")
    if len(digits) > most_digits:  # parse_network's own length test
        return NetworkParseError(line, f"capacity has more than {most_digits} digits")
    return NetworkParseError(line, f"self-loop on node {_echo(tail)}")


def _violations(net: Network) -> list[str]:
    violations: list[str] = []
    seen: set[str] = set()
    for name in net.nodes:  # isprintable() is false on all whitespace but " "
        if not name:
            violations.append("empty node name")
        elif " " in name or not name.isprintable():
            violations.append(f"node name {name!r} contains whitespace or unprintable characters")
        if name in seen:
            violations.append(f"duplicate node name {name!r}")
        seen.add(name)
    if not net.edges:
        violations.append("network has no edges")
    if not net.commodities:
        violations.append("network has no commodities")
    # Sound edges and commodities pass the plain comparisons first; only a
    # failing one is looked at again to word its messages.
    for position, edge in enumerate(net.edges):
        if edge.id == position and edge.tail in seen and edge.head in seen:
            if edge.tail != edge.head and type(edge.capacity) is int and edge.capacity >= 0:
                continue
        tag = f"edge {edge.id} ({edge.tail}->{edge.head})"
        if edge.id != position:
            violations.append(f"{tag}: id not dense at position {position}")
        for endpoint in (edge.tail, edge.head):
            if endpoint not in seen:
                violations.append(f"{tag}: endpoint {endpoint!r} not declared")
        if isinstance(edge.capacity, bool) or not isinstance(edge.capacity, int):
            violations.append(f"{tag}: capacity {edge.capacity!r} is not an integer")
        elif edge.capacity < 0:
            violations.append(f"{tag}: negative capacity {edge.capacity}")
        if edge.tail == edge.head:
            violations.append(f"{tag}: self-loop")
    for position, com in enumerate(net.commodities):
        if com.index == position + 1 and com.source in seen and com.sink in seen:
            if com.source != com.sink:
                continue
        tag = f"commodity {com.index}"
        if com.index != position + 1:
            violations.append(f"{tag}: index not dense at position {position}")
        for endpoint in (com.source, com.sink):
            if endpoint not in seen:
                violations.append(f"{tag}: endpoint {endpoint!r} not declared")
        if com.source == com.sink:
            violations.append(f"{tag}: source equals sink")
    return violations


def render_path(net: Network, edge_ids: Sequence[int]) -> str:
    """The nodes that consecutive edges visit, joined by "->"; raises
    ValueError at an edge that does not leave the node the path reached."""
    if not edge_ids:
        return ""
    nodes = [net.edges[edge_ids[0]].tail]
    for eid in edge_ids:
        edge = net.edges[eid]
        if edge.tail != nodes[-1]:
            raise ValueError(f"edge {eid} does not continue the path at {nodes[-1]!r}")
        nodes.append(edge.head)
    return "->".join(nodes)


_DOT_COLORS = (
    "blue",
    "red",
    "forestgreen",
    "darkorange",
    "purple",
    "brown",
    "teal",
    "magenta",
)


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _commodity_color(index: int) -> str:
    return _DOT_COLORS[(index - 1) % len(_DOT_COLORS)]


def _check_references(net: Network, assignment: "Assignment") -> None:
    """ValueError if the assignment's edge_flow names an unknown commodity or edge."""
    known = {com.index for com in net.commodities}
    for commodity_index, eid in assignment.edge_flow:
        if commodity_index not in known:
            raise ValueError(f"assignment references unknown commodity {commodity_index}")
        if not 0 <= eid < len(net.edges):
            raise ValueError(f"assignment references unknown edge {eid}")


def export_dot(net: Network, assignment: "Assignment | None" = None) -> str:
    """Render the network as Graphviz DOT text.

    Without an assignment every edge is labeled with its capacity.  With
    one, edges are labeled "flow/capacity" (flow summed over commodities)
    and colored by the commodities whose flow they carry; idle edges are
    gray.  Raises ValueError if the assignment references an edge or
    commodity the network does not have.
    """
    carried: dict[int, list[tuple[int, int]]] = {}
    if assignment is not None:
        _check_references(net, assignment)
        # Sorted, each edge lists its commodities in index order, as the
        # commodity lines above do.
        for (commodity_index, eid), units in sorted(assignment.edge_flow.items()):
            carried.setdefault(eid, []).append((commodity_index, units))
    lines = ["digraph network {", "  rankdir=LR;", "  node [shape=circle, fontsize=11];"]
    for com in net.commodities:
        lines.append(
            f"  // commodity {com.index}: {com.source} -> {com.sink}"
            f" [{_commodity_color(com.index)}]"
        )
    for name in net.nodes:
        lines.append(f"  {_dot_quote(name)};")
    for edge in net.edges:
        if assignment is None:
            attrs = f'label="{edge.capacity}"'
        else:
            flows = carried.get(edge.id, [])
            total = sum(units for _, units in flows)
            color = ":".join(_commodity_color(i) for i, units in flows if units > 0) or "gray"
            attrs = f'label="{total}/{edge.capacity}", color="{color}"'
        lines.append(f"  {_dot_quote(edge.tail)} -> {_dot_quote(edge.head)} [{attrs}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
