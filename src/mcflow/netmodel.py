"""Network data model: text parsing, validation and path rendering.

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
from typing import NamedTuple, Sequence

__all__ = [
    "Commodity",
    "Edge",
    "Network",
    "NetworkParseError",
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
        """The network as integer residual arcs, for max flow and
        decomposition.  Built on first use and shared by every caller, so
        treat it as read-only."""
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
            declared = len(self.commodities)
            raise ValueError(f"no commodity with index {index} (network declares {declared})")
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

    Each test words its own fault where it fails, in the order directive
    and arity, node name, endpoints, capacity, self-loop; a sound line runs
    only the tests.  They reject everything Network's own check would, so
    accepted text never raises anything else.
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
            if not (tail and head):
                raise _undeclared(lineno, parts, declared)
            # int() would also take "+5", "1_0" and non-ASCII digits.
            if not (capacity.isdigit() and capacity.isascii()):
                digits = capacity.removeprefix("-")
                if digits.isdigit() and digits.isascii():
                    raise NetworkParseError(lineno, f"negative capacity {_echo(capacity, str)}")
                raise NetworkParseError(lineno, f"capacity {_echo(capacity)} is not an integer")
            if len(capacity) > most_digits:
                raise NetworkParseError(lineno, f"capacity has more than {most_digits} digits")
            if tail is head:
                raise NetworkParseError(lineno, f"self-loop on node {_echo(tail)}")
            tails.append(tail)
            heads.append(head)
            capacities.append(int(capacity))
        elif len(parts) == 2 and parts[0] == "node":
            name = parts[1]
            if not name.isprintable():
                raise NetworkParseError(lineno, f"node name {_echo(name)} contains unprintable characters")
            if name in declared:
                raise NetworkParseError(lineno, f"duplicate node name {_echo(name)}")
            declared[name] = name
        elif len(parts) == 3 and parts[0] == "commodity":
            source, sink = declared.get(parts[1]), declared.get(parts[2])
            if not (source and sink):
                raise _undeclared(lineno, parts, declared)
            if source is sink:
                raise NetworkParseError(lineno, "commodity source equals sink")
            commodities.append(Commodity(len(commodities) + 1, source, sink))
        elif parts and not parts[0].startswith("#"):  # neither blank nor a comment
            directive, arity = parts[0], _DIRECTIVE_ARITY.get(parts[0])
            if arity is None:
                raise NetworkParseError(lineno, f"unknown directive {_echo(directive)}")
            raise NetworkParseError(
                lineno, f"{directive!r} expects {arity - 1} arguments, got {len(parts) - 1}"
            )

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


def _undeclared(line: int, parts: list[str], declared: dict) -> NetworkParseError:
    """The error naming the first undeclared end of an edge or commodity line."""
    endpoint = next(end for end in parts[1:3] if end not in declared)
    return NetworkParseError(line, f"{parts[0]} endpoint {_echo(endpoint)} not declared")


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
    # A sound edge passes the plain comparisons first, and only a failing one
    # is looked at again to word its messages: a network has thousands of
    # edges, but only a few dozen commodities, each checked once with its wording.
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
        if com.index != position + 1:
            violations.append(f"commodity {com.index}: index not dense at position {position}")
        for endpoint in (com.source, com.sink):
            if endpoint not in seen:
                violations.append(f"commodity {com.index}: endpoint {endpoint!r} not declared")
        if com.source == com.sink:
            violations.append(f"commodity {com.index}: source equals sink")
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
