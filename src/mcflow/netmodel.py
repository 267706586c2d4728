"""Network data model: text parsing, validation, rendering, and DOT export.

The text format is line oriented, UTF-8, one directive per line:

    # comment                        ignored, as are blank lines
    node <name>                      name: printable, no whitespace
    edge <tail> <head> <capacity>    capacity: ASCII decimal digits only
    commodity <source> <sink>

Every node must be declared before the first edge or commodity line that
references it.  Edge ids are dense, 0..p-1, in declaration order; commodity
indices are 1-based, also in declaration order.  Parallel edges are legal,
self-loops are not, and zero-capacity edges are allowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    "path_nodes",
    "render_network",
    "render_path",
    "validate_network",
]


class NetworkParseError(ValueError):
    """Malformed network text; `line` is the 1-based offending line."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


@dataclass(frozen=True)
class Edge:
    """Directed edge with a nonnegative integer capacity."""

    id: int
    tail: str
    head: str
    capacity: int


@dataclass(frozen=True)
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
    group in edge-id order, which is the search tie-break.  `tail[a]` is
    the node arc a leaves; `capacity[e]` is edge e's capacity.
    """

    index: dict[str, int]
    out: tuple[tuple[tuple[int, int], ...], ...]
    tail: tuple[int, ...]
    capacity: tuple[int, ...]


@dataclass(frozen=True)
class Network:
    """Immutable directed network with an ordered commodity list."""

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    commodities: tuple[Commodity, ...]

    @cached_property
    def arcs(self) -> _Arcs:
        """The network as integer residual arcs, for max flow, decomposition
        and path enumeration.  Built on first use and shared by every
        caller, so treat it as read-only."""
        index = {name: number for number, name in enumerate(self.nodes)}
        out: list[list[tuple[int, int]]] = [[] for _ in self.nodes]
        back: list[list[tuple[int, int]]] = [[] for _ in self.nodes]
        tail: list[int] = []
        for edge in self.edges:
            u, w = index[edge.tail], index[edge.head]
            out[u].append((2 * edge.id, w))
            back[w].append((2 * edge.id + 1, u))
            tail += (u, w)
        return _Arcs(
            index,
            tuple(tuple(fwd + bwd) for fwd, bwd in zip(out, back)),
            tuple(tail),
            tuple(edge.capacity for edge in self.edges),
        )

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        return tuple(_violations(self))

    def commodity(self, index: int) -> Commodity:
        for com in self.commodities:
            if com.index == index:
                return com
        raise ValueError(f"no commodity with index {index}")


_DIRECTIVE_ARITY = {"node": 2, "edge": 4, "commodity": 3}


def parse_network(text: str) -> Network:
    """Parse network text; raises NetworkParseError with a line number.

    Accepted input always satisfies validate_network, so downstream code
    can rely on parsed networks being structurally sound.
    """
    nodes: list[str] = []
    node_set: set[str] = set()
    edges: list[Edge] = []
    commodities: list[Commodity] = []

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        directive = parts[0]
        arity = _DIRECTIVE_ARITY.get(directive)
        if arity is None:
            raise NetworkParseError(lineno, f"unknown directive {directive!r}")
        if len(parts) != arity:
            raise NetworkParseError(
                lineno,
                f"{directive!r} expects {arity - 1} arguments, got {len(parts) - 1}",
            )
        if directive == "node":
            name = parts[1]
            if not name.isprintable():
                raise NetworkParseError(
                    lineno, f"node name {name!r} contains unprintable characters"
                )
            if name in node_set:
                raise NetworkParseError(lineno, f"duplicate node name {name!r}")
            nodes.append(name)
            node_set.add(name)
        elif directive == "edge":
            tail, head, cap_token = parts[1], parts[2], parts[3]
            for endpoint in (tail, head):
                if endpoint not in node_set:
                    raise NetworkParseError(
                        lineno, f"edge endpoint {endpoint!r} not declared"
                    )
            # int() would also take "+5", "1_0" and non-ASCII digits.
            digits = cap_token.removeprefix("-")
            if not (digits.isascii() and digits.isdigit()):
                raise NetworkParseError(
                    lineno, f"capacity {cap_token!r} is not an integer"
                )
            if cap_token.startswith("-"):
                raise NetworkParseError(lineno, f"negative capacity {cap_token}")
            try:
                capacity = int(cap_token)
            except ValueError:  # past the interpreter's integer-digit limit
                raise NetworkParseError(
                    lineno, f"capacity {cap_token!r} is not an integer"
                ) from None
            if tail == head:
                raise NetworkParseError(lineno, f"self-loop on node {tail!r}")
            edges.append(Edge(len(edges), tail, head, capacity))
        else:
            source, sink = parts[1], parts[2]
            for endpoint in (source, sink):
                if endpoint not in node_set:
                    raise NetworkParseError(
                        lineno, f"commodity endpoint {endpoint!r} not declared"
                    )
            if source == sink:
                raise NetworkParseError(lineno, "commodity source equals sink")
            commodities.append(Commodity(len(commodities) + 1, source, sink))

    end = max(len(lines), 1)
    if not edges:
        raise NetworkParseError(end, "no edges declared")
    if not commodities:
        raise NetworkParseError(end, "no commodities declared")
    return Network(tuple(nodes), tuple(edges), tuple(commodities))


def validate_network(net: Network) -> list[str]:
    """Return one message per violated structural invariant; [] when sound.

    The check runs once per network; each call returns a fresh list."""
    return list(net._problems)


def _violations(net: Network) -> list[str]:
    violations: list[str] = []
    seen: set[str] = set()
    for name in net.nodes:
        if not name:
            violations.append("empty node name")
        elif any(ch.isspace() for ch in name) or not name.isprintable():
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
        if (
            edge.id == position
            and edge.tail in seen
            and edge.head in seen
            and type(edge.capacity) is int
            and edge.capacity >= 0
            and edge.tail != edge.head
        ):
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
        if (
            com.index == position + 1
            and com.source in seen
            and com.sink in seen
            and com.source != com.sink
        ):
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


def render_network(net: Network) -> str:
    """Serialize a network; parse_network inverts this exactly."""
    lines = [f"node {name}" for name in net.nodes]
    lines += [f"edge {e.tail} {e.head} {e.capacity}" for e in net.edges]
    lines += [f"commodity {c.source} {c.sink}" for c in net.commodities]
    return "\n".join(lines) + "\n"


def path_nodes(net: Network, edge_ids: Sequence[int]) -> list[str]:
    """Node sequence visited by consecutive edges."""
    if not edge_ids:
        return []
    nodes = [net.edges[edge_ids[0]].tail]
    for eid in edge_ids:
        edge = net.edges[eid]
        if edge.tail != nodes[-1]:
            raise ValueError(f"edge {eid} does not continue the path at {nodes[-1]!r}")
        nodes.append(edge.head)
    return nodes


def render_path(net: Network, edge_ids: Sequence[int]) -> str:
    return "->".join(path_nodes(net, edge_ids))


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
    if assignment is not None:
        _check_references(net, assignment)
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
            total = sum(
                assignment.edge_flow.get((com.index, edge.id), 0)
                for com in net.commodities
            )
            carriers = [
                com.index
                for com in net.commodities
                if assignment.edge_flow.get((com.index, edge.id), 0) > 0
            ]
            color = ":".join(_commodity_color(i) for i in carriers) or "gray"
            attrs = f'label="{total}/{edge.capacity}", color="{color}"'
        lines.append(f"  {_dot_quote(edge.tail)} -> {_dot_quote(edge.head)} [{attrs}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
