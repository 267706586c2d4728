"""Shared generators and independent oracles for the test suite.

The oracles here are deliberately written from scratch against the
definitions (subset enumeration, plain breadth-first search, itertools
products) so library results are checked by a second route, not by
themselves.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
from collections import deque
from typing import NamedTuple, Sequence

from hypothesis import strategies as st

from mcflow import (
    DEFAULT_MAX_CANDIDATES,
    ColoredPath,
    Commodity,
    Cut,
    Edge,
    FlowState,
    Network,
    NetworkParseError,
)
from mcflow.netmodel import (
    _DIRECTIVE_ARITY,
    _MAX_CAPACITY_DIGITS,
    _Arcs,
)


def random_network(
    rng, max_nodes=8, max_edges=16, max_cap=10, commodity_range=(1, 1), min_nodes=2, min_edges=1
):
    """Seeded random network; always a valid Network."""
    node_count = rng.randint(min_nodes, max_nodes)
    names = tuple(f"v{i}" for i in range(node_count))
    edge_count = rng.randint(min_edges, max_edges)
    edges = []
    for eid in range(edge_count):
        tail, head = rng.sample(range(node_count), 2)
        edges.append(Edge(eid, names[tail], names[head], rng.randint(0, max_cap)))
    low, high = commodity_range
    commodities = []
    for index in range(1, rng.randint(low, high) + 1):
        source, sink = rng.sample(range(node_count), 2)
        commodities.append(Commodity(index, names[source], names[sink]))
    return Network(names, tuple(edges), tuple(commodities))


def render_network(net: Network) -> str:
    """Serialize a network; parse_network inverts this exactly."""
    lines = [f"node {name}" for name in net.nodes]
    lines += [f"edge {e.tail} {e.head} {e.capacity}" for e in net.edges]
    lines += [f"commodity {c.source} {c.sink}" for c in net.commodities]
    return "\n".join(lines) + "\n"


# A parse diagnostic shows at most this many characters of a token.
ECHO_LIMIT = 64


def echoed(token: str, quoted: bool = True) -> str:
    """A token as a parse diagnostic shows it: whole, in repr() quotes unless
    `quoted` is false, up to ECHO_LIMIT characters; past that, only its first
    ECHO_LIMIT characters and a "…" go in the quotes, and its length follows."""
    if len(token) <= ECHO_LIMIT:
        return repr(token) if quoted else token
    start = token[:ECHO_LIMIT] + "…"
    return (repr(start) if quoted else start) + f" ({len(token)} characters)"


_X, _Y = "x" * 100_000, "y" * 100_000
# Network text with one overlong token: (text, line, the diagnostic's reason).
LONG_TOKEN_CASES = [
    (f"node {_X}\nnode {_X}\n", 2, f"duplicate node name '{'x' * 64}…' (100000 characters)"),
    (
        "node s\nnode a\x00" + "b" * 99,
        2,
        f"node name 'a\\x00{'b' * 62}…' (101 characters) contains unprintable characters",
    ),
    ("z" * 5000 + " a\n", 1, f"unknown directive '{'z' * 64}…' (5000 characters)"),
    (
        f"node s\nedge s {_Y} 3\n",
        2,
        f"edge endpoint '{'y' * 64}…' (100000 characters) not declared",
    ),
    (
        "node s\nnode t\nedge s t +" + "9" * 100_000,
        3,
        f"capacity '+{'9' * 63}…' (100001 characters) is not an integer",
    ),
    (
        "node s\nnode t\nedge s t -" + "9" * 5000,
        3,
        f"negative capacity -{'9' * 63}… (5001 characters)",
    ),
    (f"node {_X}\nedge {_X} {_X} 1\n", 2, f"self-loop on node '{'x' * 64}…' (100000 characters)"),
    ("node " + "x" * 64 + "\nnode " + "x" * 64, 2, f"duplicate node name '{'x' * 64}'"),
]


def reference_parse_network(text: str) -> Network:
    """Parse network text; raises NetworkParseError with a line number.

    The straightforward parser, kept as a second route to parse_network's
    results: every line runs every check in order and raises at the first
    that fails."""
    nodes: list[str] = []
    node_set: set[str] = set()
    edges: list[Edge] = []
    commodities: list[Commodity] = []
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    most_digits = min(_MAX_CAPACITY_DIGITS, limit - 300) if limit else _MAX_CAPACITY_DIGITS

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        directive = parts[0]
        arity = _DIRECTIVE_ARITY.get(directive)
        if arity is None:
            raise NetworkParseError(lineno, f"unknown directive {echoed(directive)}")
        if len(parts) != arity:
            raise NetworkParseError(
                lineno,
                f"{directive!r} expects {arity - 1} arguments, got {len(parts) - 1}",
            )
        if directive == "node":
            name = parts[1]
            if not name.isprintable():
                raise NetworkParseError(
                    lineno, f"node name {echoed(name)} contains unprintable characters"
                )
            if name in node_set:
                raise NetworkParseError(lineno, f"duplicate node name {echoed(name)}")
            nodes.append(name)
            node_set.add(name)
            continue
        for endpoint in parts[1:3]:  # an edge's or a commodity's two ends
            if endpoint not in node_set:
                raise NetworkParseError(
                    lineno, f"{directive} endpoint {echoed(endpoint)} not declared"
                )
        if directive == "edge":
            tail, head, cap_token = parts[1], parts[2], parts[3]
            # int() would also take "+5", "1_0" and non-ASCII digits.
            digits = cap_token.removeprefix("-")
            if not (digits.isascii() and digits.isdigit()):
                raise NetworkParseError(
                    lineno, f"capacity {echoed(cap_token)} is not an integer"
                )
            if cap_token.startswith("-"):
                raise NetworkParseError(
                    lineno, f"negative capacity {echoed(cap_token, quoted=False)}"
                )
            if len(digits) > most_digits:
                raise NetworkParseError(lineno, f"capacity has more than {most_digits} digits")
            capacity = int(cap_token)  # most_digits is below any int() limit
            if tail == head:
                raise NetworkParseError(lineno, f"self-loop on node {echoed(tail)}")
            edges.append(Edge(len(edges), tail, head, capacity))
        else:
            source, sink = parts[1], parts[2]
            if source == sink:
                raise NetworkParseError(lineno, "commodity source equals sink")
            commodities.append(Commodity(len(commodities) + 1, source, sink))

    end = max(len(lines), 1)
    if not edges:
        raise NetworkParseError(end, "no edges declared")
    if not commodities:
        raise NetworkParseError(end, "no commodities declared")
    return Network(tuple(nodes), tuple(edges), tuple(commodities))


def reference_arcs(net: Network) -> _Arcs:
    """Network.arcs built edge by edge from each Edge's attributes."""
    index = {name: number for number, name in enumerate(net.nodes)}
    out: list[list[tuple[int, int]]] = [[] for _ in net.nodes]
    back: list[list[tuple[int, int]]] = [[] for _ in net.nodes]
    for edge in net.edges:
        u, w = index[edge.tail], index[edge.head]
        out[u].append((2 * edge.id, w))
        back[w].append((2 * edge.id + 1, u))
    return _Arcs(
        index,
        tuple(tuple(fwd + bwd) for fwd, bwd in zip(out, back)),
        tuple(edge.capacity for edge in net.edges),
    )


def regular_network(rng, node_count, degree, commodity_count, max_cap=20):
    """Seeded digraph in which every node has `degree` out- and in-edges.

    Parallel edges can occur; self-loops are swapped away.
    """
    names = tuple(f"v{i}" for i in range(node_count))
    tails = [v for v in range(node_count) for _ in range(degree)]
    heads = tails.copy()
    rng.shuffle(heads)
    for i in range(len(heads)):
        while heads[i] == tails[i]:
            j = rng.randrange(len(heads))
            if heads[j] != tails[i] and tails[j] != heads[i]:
                heads[i], heads[j] = heads[j], heads[i]
    edges = tuple(
        Edge(eid, names[tail], names[head], rng.randint(1, max_cap))
        for eid, (tail, head) in enumerate(zip(tails, heads))
    )
    commodities = []
    for index in range(1, commodity_count + 1):
        source, sink = rng.sample(range(node_count), 2)
        commodities.append(Commodity(index, names[source], names[sink]))
    return Network(names, edges, tuple(commodities))


def add_circulations(net: Network, edge_flow, rng, rounds=3) -> tuple[int, ...]:
    """Push spare capacity around directed cycles of unsaturated edges.

    The value and maximality of the flow are unchanged, so the result is
    another max flow, now with flow cycles to cancel.
    """
    flows = list(edge_flow)
    for _ in range(rounds):
        slack = [e for e in net.edges if flows[e.id] < e.capacity]
        if not slack:
            break
        first = rng.choice(slack)
        # shortest unsaturated path from first.head back to first.tail
        parent = {first.head: None}
        queue = deque([first.head])
        while queue and first.tail not in parent:
            u = queue.popleft()
            for e in slack:
                if e.tail == u and e.head not in parent:
                    parent[e.head] = e
                    queue.append(e.head)
        if first.tail not in parent:
            continue
        cycle = [first]
        v = first.tail
        while parent[v] is not None:
            cycle.append(parent[v])
            v = parent[v].tail
        delta = min(e.capacity - flows[e.id] for e in cycle)
        for e in cycle:
            flows[e.id] += delta
    return tuple(flows)


def brute_force_min_cut(net: Network, s: str, t: str) -> int:
    """Minimum cut capacity over every source-side subset containing s."""
    others = [v for v in net.nodes if v not in (s, t)]
    best = None
    for mask in range(1 << len(others)):
        side = {s}
        for bit, node in enumerate(others):
            if mask >> bit & 1:
                side.add(node)
        cap = sum(e.capacity for e in net.edges if e.tail in side and e.head not in side)
        if best is None or cap < best:
            best = cap
    return best


def residual_hop_distance(net: Network, edge_flow, s: str, t: str):
    """Plain BFS hop count over residual edges; None when unreachable."""
    dist = {s: 0}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for e in net.edges:
            if e.tail == u and edge_flow[e.id] < e.capacity and e.head not in dist:
                dist[e.head] = dist[u] + 1
                queue.append(e.head)
            if e.head == u and edge_flow[e.id] > 0 and e.tail not in dist:
                dist[e.tail] = dist[u] + 1
                queue.append(e.tail)
    return dist.get(t)


class Augmentation(NamedTuple):
    """An augmenting path: nodes, per-edge direction, and its leeway."""

    nodes: tuple[str, ...]
    steps: tuple[tuple[int, bool], ...]  # (edge id, traversed forward?)
    leeway: int


def reference_augmenting_path(net: Network, edge_flow, s: str, t: str):
    """Shortest residual s-t path, or None when the flow is maximal.

    Breadth first, rebuilding the per-node edge lists on every call; at
    equal depth forward residual edges win over backward ones and lower
    edge ids win within each kind.
    """
    out = {v: [] for v in net.nodes}
    inc = {v: [] for v in net.nodes}
    for edge in net.edges:
        out[edge.tail].append(edge)
        inc[edge.head].append(edge)
    parent = {}
    seen = {s}
    queue = deque([s])
    while queue and t not in seen:
        u = queue.popleft()
        for edge in out[u]:
            if edge.head not in seen and edge_flow[edge.id] < edge.capacity:
                seen.add(edge.head)
                parent[edge.head] = (u, edge.id, True)
                queue.append(edge.head)
        for edge in inc[u]:
            if edge.tail not in seen and edge_flow[edge.id] > 0:
                seen.add(edge.tail)
                parent[edge.tail] = (u, edge.id, False)
                queue.append(edge.tail)
    if t not in seen:
        return None
    steps = []
    nodes = [t]
    v = t
    while v != s:
        u, eid, forward = parent[v]
        steps.append((eid, forward))
        nodes.append(u)
        v = u
    steps.reverse()
    nodes.reverse()
    leeway = min(
        net.edges[eid].capacity - edge_flow[eid] if forward else edge_flow[eid]
        for eid, forward in steps
    )
    return Augmentation(tuple(nodes), tuple(steps), leeway)


def reference_augment(net: Network, edge_flow, found: Augmentation) -> tuple[int, ...]:
    """Edge flows after pushing found.leeway units along its steps."""
    flows = list(edge_flow)
    for eid, forward in found.steps:
        flows[eid] += found.leeway if forward else -found.leeway
        assert 0 <= flows[eid] <= net.edges[eid].capacity
    return tuple(flows)


def dense_flow(net: Network, edge_flow: dict[int, int]) -> list[int]:
    """FlowState.edge_flow as one flow per edge id, zero where it omits one."""
    return [edge_flow.get(e.id, 0) for e in net.edges]


def reference_max_flow(net: Network, com: Commodity) -> FlowState:
    """Stepwise Edmonds-Karp: a fresh search and a new flow tuple per
    augmentation, then the min cut from a separate reachability pass and
    the paths from the reference decomposition."""
    flows = (0,) * len(net.edges)
    value = 0
    while (found := reference_augmenting_path(net, flows, com.source, com.sink)) is not None:
        flows = reference_augment(net, flows, found)
        value += found.leeway
    positive = {eid: amount for eid, amount in enumerate(flows) if amount > 0}
    f = FlowState(positive, value, reference_cut(net, flows, com.source), ())
    return dataclasses.replace(f, paths=tuple(reference_decompose_cut_paths(net, com, f)))


def reference_cut(net: Network, flows, s: str) -> Cut:
    """The nodes residually reachable from s and the edges leaving them."""
    side = {s}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for e in net.edges:
            if e.tail == u and flows[e.id] < e.capacity and e.head not in side:
                side.add(e.head)
                queue.append(e.head)
            if e.head == u and flows[e.id] > 0 and e.tail not in side:
                side.add(e.tail)
                queue.append(e.tail)
    cut_edges = tuple(e for e in net.edges if e.tail in side and e.head not in side)
    # The cut keeps its smaller side; at an even split, the source side.
    side_is_source = 2 * len(side) <= len(net.nodes)
    kept = tuple(v for v in net.nodes if (v in side) == side_is_source)
    return Cut(net.nodes, kept, side_is_source, cut_edges, sum(e.capacity for e in cut_edges))


def reference_out_edges(net: Network) -> dict[str, tuple[Edge, ...]]:
    """Per node, the edges leaving it in id order."""
    out = {v: [] for v in net.nodes}
    for edge in net.edges:
        out[edge.tail].append(edge)
    return {v: tuple(edges) for v, edges in out.items()}


def reference_find_flow_cycle(net: Network, flows: list[int]) -> list[int] | None:
    """Edge ids of one directed cycle in the positive-flow subgraph."""
    out = reference_out_edges(net)
    WHITE, GRAY, BLACK = 0, 1, 2
    state = dict.fromkeys(net.nodes, WHITE)

    def positive(v: str) -> list[Edge]:
        return [e for e in out[v] if flows[e.id] > 0]

    for start in net.nodes:
        if state[start] != WHITE:
            continue
        stack: list[tuple[str, object]] = [(start, iter(positive(start)))]
        trail: list[Edge] = []  # trail[i] joins stack[i] to stack[i+1]
        state[start] = GRAY
        while stack:
            node, edges_left = stack[-1]
            step = next(edges_left, None)  # type: ignore[arg-type]
            if step is None:
                state[node] = BLACK
                stack.pop()
                if trail:
                    trail.pop()
                continue
            if step.tail == step.head:
                return [step.id]
            if state[step.head] == GRAY:
                cycle = [step.id]
                for back in reversed(trail):
                    cycle.append(back.id)
                    if back.tail == step.head:
                        break
                return cycle
            if state[step.head] == WHITE:
                state[step.head] = GRAY
                trail.append(step)
                stack.append((step.head, iter(positive(step.head))))
    return None


def reference_cancel_flow_cycles(net: Network, flows: list[int]) -> None:
    # Backward augmentations can leave flow cycles; they carry no
    # source-sink value, so zero them before peeling paths.
    while True:
        cycle = reference_find_flow_cycle(net, flows)
        if cycle is None:
            return
        delta = min(flows[eid] for eid in cycle)
        for eid in cycle:
            flows[eid] -= delta


def reference_decompose_cut_paths(net: Network, com: Commodity, f: FlowState) -> list[ColoredPath]:
    """The dict-based decomposition of `com`'s max flow `f` that max_flow's
    decompose_cut_paths replaced: a restarted depth-first cycle search,
    then peeling walks that re-filter each node's out-edges at every step.

    Deterministic: flow cycles are cancelled first, then the walk following
    the lowest-id positive-flow edge out of each node is peeled by its
    bottleneck, repeatedly, until the source has no positive out-flow.
    Each path must cross `f.min_cut` exactly once.
    """
    cut_ids = {e.id for e in f.min_cut.cut_edges}
    out = reference_out_edges(net)
    flows = dense_flow(net, f.edge_flow)
    reference_cancel_flow_cycles(net, flows)
    paths: list[ColoredPath] = []
    peeled = 0
    while any(flows[e.id] > 0 for e in out[com.source]):
        walk: list[int] = []
        v = com.source
        visited = [v]
        while v != com.sink:
            candidates = [e for e in out[v] if flows[e.id] > 0]
            assert candidates, f"flow conservation broken at {v!r}"
            walk.append(candidates[0].id)
            v = candidates[0].head
            visited.append(v)
            assert len(walk) <= len(net.edges), "cycle encountered during peeling"
        amount = min(flows[eid] for eid in walk)
        for eid in walk:
            flows[eid] -= amount
        peeled += amount
        assert len(set(visited)) == len(visited), "peeled path is not simple"
        assert sum(1 for eid in walk if eid in cut_ids) == 1, (
            "path must cross the min cut exactly once"
        )
        paths.append(ColoredPath(com.index, len(paths) + 1, tuple(walk), amount))
    assert peeled == f.value, "decomposition amounts must sum to the flow value"
    return paths


def audit_tables(tables) -> list[str]:
    """Cross-check the tables' per-edge and per-path columns against their
    defining rule, recomputed from the paths; [] when clean."""
    problems: list[str] = []
    expected_paths: dict[int, list[int]] = {}
    for position, path in enumerate(tables.paths):
        for eid in path.edges:
            expected_paths.setdefault(eid, []).append(position)
    for edge in tables.network.edges:
        if edge.id in tables.edge_paths and edge.id not in expected_paths:
            problems.append(f"edge {edge.id}: indexed although no path uses it")
        elif list(tables.edge_paths.get(edge.id, ())) != expected_paths.get(edge.id, []):
            problems.append(f"edge {edge.id}: path index out of sync")
    for position, path in enumerate(tables.paths):
        colors = {p for eid in path.edges for p in expected_paths[eid]}
        if tables.path_color_count[position] != len(colors):
            problems.append(f"{path.label}: color count column out of sync")
    return problems


def full_scan_greedy(net: Network, paths: Sequence[ColoredPath]):
    """Reference selection rule over `paths`, rebuilt from scratch at every
    step from this function's own statuses: residuals from the shipments so
    far, each edge's colors from the paths not discarded, and from those
    every path's color count and bottleneck.  The active path with the
    smallest (color count, commodity, ordinal) ships its bottleneck; then
    every active path left with a zero-residual edge is discarded.

    Returns the shipments as (position, amount), the discarded positions
    in discard order, and the per-(commodity, edge) flow.
    """
    status = ["active"] * len(paths)
    shipments, discarded, edge_flow = [], [], {}
    while "active" in status:
        residual = {e.id: e.capacity for e in net.edges}
        for position, amount in shipments:
            for eid in paths[position].edges:
                residual[eid] -= amount
        colors = {e.id: set() for e in net.edges}
        for position, path in enumerate(paths):
            if status[position] != "discarded":
                for eid in path.edges:
                    colors[eid].add(position)
        count = [len(set().union(*(colors[eid] for eid in p.edges))) for p in paths]
        bottleneck = [min(residual[eid] for eid in p.edges) for p in paths]
        choice = min(
            (p for p in range(len(paths)) if status[p] == "active"),
            key=lambda p: (count[p], paths[p].commodity, paths[p].ordinal),
        )
        amount = bottleneck[choice]
        status[choice] = "used"
        shipments.append((choice, amount))
        for eid in paths[choice].edges:
            residual[eid] -= amount
            key = (paths[choice].commodity, eid)
            edge_flow[key] = edge_flow.get(key, 0) + amount
        for position, path in enumerate(paths):
            if status[position] == "active" and any(residual[eid] == 0 for eid in path.edges):
                status[position] = "discarded"
                discarded.append(position)
    return shipments, discarded, edge_flow


class _Reads:
    """Counts the items read from a list or dict, by index or by iteration."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item


class CountingList(_Reads, list):
    pass


class CountingDict(_Reads, dict):
    pass


class CountingTuple(_Reads, tuple):
    def __new__(cls, items):
        return super().__new__(cls, items)

    def __init__(self, items):
        self.reads = 0


def multicommodity_networks(rng, count, min_commodities=1):
    """`count` seeded networks with up to 12 commodities, alternating
    regular_network and random_network instances."""
    for trial in range(count):
        commodities = rng.randint(min_commodities, 12)
        if trial % 2:
            yield random_network(rng, 12, 40, commodity_range=(commodities, commodities))
        else:
            yield regular_network(rng, rng.randint(6, 20), rng.randint(2, 3), commodities)


def corrupt_assignment(net: Network, assignment, rng):
    """A copy of `assignment` with one to three seeded faults: units added
    to or taken from an entry, zero and negative entries, a node passed
    through with in = out, flow into a commodity's own source or out of its
    sink, and wrong per-commodity values, totals and shipments."""
    flow = dict(assignment.edge_flow)
    values = dict(assignment.per_commodity_value)
    total = assignment.total_value
    shipments = list(assignment.shipments)
    for _ in range(rng.randint(1, 3)):
        com = rng.choice(net.commodities)
        edge = rng.choice(net.edges)
        key = (com.index, edge.id)
        kind = rng.randrange(8)
        if kind == 0:
            flow[key] = flow.get(key, 0) + rng.randint(1, 5)
        elif kind == 1 and flow:
            taken = rng.choice(sorted(flow))
            flow[taken] -= rng.randint(1, 5)
        elif kind == 2:
            flow[key] = 0
        elif kind == 3:
            flow[key] = -rng.randint(1, 5)
        elif kind == 4:
            node = rng.choice(net.nodes)
            into = [e for e in net.edges if e.head == node]
            out = [e for e in net.edges if e.tail == node]
            if into and out:
                units = rng.randint(1, 5)
                for e in (rng.choice(into), rng.choice(out)):
                    flow[com.index, e.id] = flow.get((com.index, e.id), 0) + units
        elif kind == 5:
            ends = [e for e in net.edges if e.head == com.source or e.tail == com.sink]
            if ends:
                e = rng.choice(ends)
                flow[com.index, e.id] = flow.get((com.index, e.id), 0) + rng.randint(1, 5)
        elif kind == 6:
            values[com.index] = values.get(com.index, 0) + rng.choice((-2, -1, 1, 2))
        else:
            total += rng.choice((-1, 1))
            if shipments and rng.random() < 0.5:
                shipments.pop(rng.randrange(len(shipments)))
    return dataclasses.replace(
        assignment,
        shipments=shipments,
        edge_flow=flow,
        per_commodity_value=values,
        total_value=total,
    )


def misreference_assignment(net: Network, assignment, rng):
    """A copy of `assignment` with zero to two edge_flow entries inserted at
    seeded positions: a key naming an unknown commodity (0, K + 1 or
    negative), an unknown edge (E, E + 7 or negative), or both, or a known
    key with negative units."""
    entries = list(assignment.edge_flow.items())
    for _ in range(rng.randint(0, 2)):
        commodity = rng.choice(net.commodities).index
        eid = rng.randrange(len(net.edges))
        kind = rng.randrange(4)
        if kind in (0, 2):
            commodity = rng.choice((0, len(net.commodities) + 1, -rng.randint(1, 3)))
        if kind in (1, 2):
            eid = rng.choice((len(net.edges), len(net.edges) + 7, -rng.randint(1, 3)))
        units = -rng.randint(1, 5) if kind == 3 else rng.randint(0, 5)
        entries.insert(rng.randint(0, len(entries)), ((commodity, eid), units))
    return dataclasses.replace(assignment, edge_flow=dict(entries))


def reference_check_references(net: Network, assignment) -> None:
    """ValueError, worded as the package words it, for the first
    edge_flow key that names a commodity index or an edge id the network
    does not have; the commodity is checked before the edge."""
    commodities = {com.index for com in net.commodities}
    edge_ids = {edge.id for edge in net.edges}
    for commodity_index, eid in assignment.edge_flow:
        if commodity_index not in commodities:
            raise ValueError(f"assignment references unknown commodity {commodity_index}")
        if eid not in edge_ids:
            raise ValueError(f"assignment references unknown edge {eid}")


def reference_validate_assignment(net: Network, assignment) -> list[str]:
    """The conservation check validate_assignment replaced, kept unchanged
    as its reference: every (commodity, node) pair is visited, with inflow
    and outflow summed separately.  Costs O(K*V + E + flow entries)."""
    reference_check_references(net, assignment)
    violations: list[str] = []
    used = [0] * len(net.edges)
    inflow: dict[tuple[int, str], int] = {}
    outflow: dict[tuple[int, str], int] = {}
    for (commodity_index, eid), units in assignment.edge_flow.items():
        if units < 0:
            violations.append(
                f"commodity {commodity_index}, edge {eid}: negative flow {units}"
            )
        edge = net.edges[eid]
        used[eid] += units
        head = (commodity_index, edge.head)
        tail = (commodity_index, edge.tail)
        inflow[head] = inflow.get(head, 0) + units
        outflow[tail] = outflow.get(tail, 0) + units
    for edge in net.edges:
        if used[edge.id] > edge.capacity:
            violations.append(
                f"edge {edge.id} ({edge.tail}->{edge.head}):"
                f" total flow {used[edge.id]} exceeds capacity {edge.capacity}"
            )
    for com in net.commodities:
        for node in net.nodes:
            if node in (com.source, com.sink):
                continue
            node_in = inflow.get((com.index, node), 0)
            node_out = outflow.get((com.index, node), 0)
            if node_in != node_out:
                violations.append(
                    f"commodity {com.index}, node {node}:"
                    f" inflow {node_in} != outflow {node_out}"
                )
        source = (com.index, com.source)
        net_out = outflow.get(source, 0) - inflow.get(source, 0)
        declared = assignment.per_commodity_value.get(com.index, 0)
        if net_out != declared:
            violations.append(
                f"commodity {com.index}: declared value {declared}"
                f" != net source outflow {net_out}"
            )
    shipped = sum(amount for _, amount in assignment.shipments)
    if assignment.total_value != shipped:
        violations.append(
            f"total {assignment.total_value} != shipment sum {shipped}"
        )
    split = sum(assignment.per_commodity_value.values())
    if assignment.total_value != split:
        violations.append(
            f"total {assignment.total_value} != per-commodity sum {split}"
        )
    return violations


# The colors of commodities 1 to 8 in a DOT export; commodity 9 starts over.
REFERENCE_DOT_COLORS = (
    "blue", "red", "forestgreen", "darkorange", "purple", "brown", "teal", "magenta",
)


def reference_dot_quote(name: str) -> str:
    """A DOT quoted string: each backslash and double quote in `name` gets
    a backslash in front of it."""
    return '"' + "".join("\\" + char if char in '\\"' else char for char in name) + '"'


def reference_commodity_color(index: int) -> str:
    return REFERENCE_DOT_COLORS[(index - 1) % 8]


def reference_export_dot(net: Network, assignment) -> str:
    """The DOT export with an assignment as export_dot wrote it before it
    grouped edge_flow by edge, kept as its reference: each edge's total and
    carriers are looked up per (commodity, edge), in commodity order."""
    reference_check_references(net, assignment)
    lines = ["digraph network {", "  rankdir=LR;", "  node [shape=circle, fontsize=11];"]
    for com in net.commodities:
        lines.append(
            f"  // commodity {com.index}: {com.source} -> {com.sink}"
            f" [{reference_commodity_color(com.index)}]"
        )
    for name in net.nodes:
        lines.append(f"  {reference_dot_quote(name)};")
    for edge in net.edges:
        total = sum(
            assignment.edge_flow.get((com.index, edge.id), 0)
            for com in net.commodities
        )
        carriers = [
            com.index
            for com in net.commodities
            if assignment.edge_flow.get((com.index, edge.id), 0) > 0
        ]
        color = ":".join(reference_commodity_color(i) for i in carriers) or "gray"
        attrs = f'label="{total}/{edge.capacity}", color="{color}"'
        tail, head = reference_dot_quote(edge.tail), reference_dot_quote(edge.head)
        lines.append(f"  {tail} -> {head} [{attrs}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


REFERENCE_MAX_PATHS = 64


class ReferenceLimitError(RuntimeError):
    """A commodity has more simple paths than the reference may list."""


class ReferenceResult(NamedTuple):
    """The brute-force optimum and its witness: `witness[i]` is the amount
    on `paths[i]`.  `truncated` is set when the node budget ran out or a
    commodity had too many paths (then the optimum is 0 and `paths` empty)."""

    optimum: int
    witness: tuple[int, ...]
    explored: int
    truncated: bool
    paths: tuple[ColoredPath, ...]


def reference_enumerate_paths(
    net: Network, com: Commodity, limit: int = REFERENCE_MAX_PATHS
) -> list[ColoredPath]:
    """Every simple source-sink path of `com`, over node names, depth first
    with lower edge ids first, entering every node off the trail whether or
    not the sink is still reachable from it; each path's bottleneck is its
    smallest capacity.  Raises ReferenceLimitError past `limit`.  Recurses
    once per node on the trail, so keep networks small."""
    out = reference_out_edges(net)
    found: list[ColoredPath] = []

    def walk(node: str, trail: tuple[int, ...], visited: frozenset[str]) -> None:
        for edge in out[node]:
            edges = (*trail, edge.id)
            if edge.head == com.sink:
                bottleneck = min(net.edges[eid].capacity for eid in edges)
                found.append(ColoredPath(com.index, len(found) + 1, edges, bottleneck))
                if len(found) > limit:
                    raise ReferenceLimitError(f"commodity {com.index}: more than {limit} paths")
            elif edge.head not in visited:
                walk(edge.head, edges, visited | {edge.head})

    walk(com.source, (), frozenset({com.source}))
    return found


def reference_optimal_value(
    net: Network,
    max_paths: int = REFERENCE_MAX_PATHS,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    catalog: Sequence[ColoredPath] | None = None,
) -> ReferenceResult:
    """Exact integral optimum over simple-path flows by brute force, within
    limits: every simple path of every commodity, each carrying an integer
    amount up to the residual capacity along it, searched by a recursive
    branch and bound, high amounts first, that prunes a node whose suffix
    capacity cannot beat the best leaf.  `max_candidates` bounds its nodes.
    Recurses once per catalog path, so keep catalogs small.

    The witness is the lexicographically largest optimal amount vector over
    the catalog order used: the first optimal leaf.  Pass `catalog` to
    restrict the search to a known path set.
    """
    if catalog is None:
        try:
            catalog = [
                path
                for com in net.commodities
                for path in reference_enumerate_paths(net, com, max_paths)
            ]
        except ReferenceLimitError:
            return ReferenceResult(0, (), 0, True, ())
    paths = tuple(catalog)
    m = len(paths)
    residual = [e.capacity for e in net.edges]
    # Static suffix bound from full capacities: cheap first-stage prune.
    static_suffix = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        static_suffix[k] = static_suffix[k + 1] + paths[k].bottleneck
    amounts = [0] * m
    best_value = 0
    best_vector = [0] * m
    explored = 0
    budget_hit = False

    def path_cap(k: int) -> int:
        return min(residual[eid] for eid in paths[k].edges)

    def remaining_bound(k: int) -> int:
        return sum(path_cap(j) for j in range(k, m))

    def descend(k: int, current: int) -> None:
        nonlocal explored, best_value, best_vector, budget_hit
        if budget_hit:
            return
        explored += 1
        if explored > max_candidates:
            budget_hit = True
            return
        if k == m:
            if current > best_value:
                best_value = current
                best_vector = amounts.copy()
            return
        if current + static_suffix[k] <= best_value:
            return
        if current + remaining_bound(k) <= best_value:
            return
        for a in range(path_cap(k), -1, -1):
            amounts[k] = a
            for eid in paths[k].edges:
                residual[eid] -= a
            descend(k + 1, current + a)
            for eid in paths[k].edges:
                residual[eid] += a
            amounts[k] = 0
            if budget_hit:
                return

    descend(0, 0)
    return ReferenceResult(best_value, tuple(best_vector), explored, budget_hit, paths)


def flow_is_feasible(net: Network, edge_flow, s: str, t: str) -> bool:
    """Capacity bounds plus conservation away from s and t."""
    for e in net.edges:
        if not 0 <= edge_flow[e.id] <= e.capacity:
            return False
    for v in net.nodes:
        if v in (s, t):
            continue
        inflow = sum(edge_flow[e.id] for e in net.edges if e.head == v)
        outflow = sum(edge_flow[e.id] for e in net.edges if e.tail == v)
        if inflow != outflow:
            return False
    return True


def exhaustive_best(net: Network, paths) -> int:
    """Optimum by brute product enumeration; only call on tiny catalogs."""
    best = 0
    ranges = [range(p.bottleneck + 1) for p in paths]
    for amounts in itertools.product(*ranges):
        usage = [0] * len(net.edges)
        for path, amount in zip(paths, amounts):
            for eid in path.edges:
                usage[eid] += amount
        if all(usage[e.id] <= e.capacity for e in net.edges):
            best = max(best, sum(amounts))
    return best


def certified_cut_union_bound(net: Network, cut_edge_ids) -> int | None:
    """The capacity of `cut_edge_ids` when it is an upper bound on every
    joint flow, else None.

    Dual lengths y = 1 on those edges and 0 elsewhere certify the bound
    when every commodity's source-sink path has length >= 1, that is, when
    deleting the edges leaves no sink reachable from its source.  Checked
    by a plain breadth-first search over `net.edges`, independent of
    `mcflow.maxflow`.
    """
    removed = set(cut_edge_ids)
    out: dict[str, list[str]] = {v: [] for v in net.nodes}
    for e in net.edges:
        if e.id not in removed:
            out[e.tail].append(e.head)
    for com in net.commodities:
        seen = {com.source}
        queue = deque([com.source])
        while queue:
            for w in out[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if com.sink in seen:
            return None
    return sum(e.capacity for e in net.edges if e.id in removed)


def direct_inclusion_exclusion(edge_sets, capacities) -> int:
    """Alternating subset-sum evaluation over explicit edge-id sets."""
    total = 0
    n = len(edge_sets)
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            shared = set(edge_sets[combo[0]])
            for i in combo[1:]:
                shared &= edge_sets[i]
            term = sum(capacities[eid] for eid in shared)
            total += term if size % 2 == 1 else -term
    return total


def checked_term_sum(cuts, terms) -> int:
    """Cut sums plus the alternating-sign sum of `terms`, the
    (1-based subset, shared capacity) pairs intersection_terms yields for
    `cuts`, after checking that they name every subset of two or more cuts
    in combinations order and that each value is the capacity of that
    subset's explicit edge intersection."""
    sets = [{e.id for e in cut.cut_edges} for cut in cuts]
    caps = {e.id: e.capacity for cut in cuts for e in cut.cut_edges}
    positions = range(1, len(cuts) + 1)
    subsets = [c for size in positions[1:] for c in itertools.combinations(positions, size)]
    total = sum(cut.capacity for cut in cuts)
    seen = []
    for subset, value in terms:
        seen.append(subset)
        shared = set.intersection(*(sets[i - 1] for i in subset))
        assert value == sum(caps[eid] for eid in shared), subset
        total += value if len(subset) % 2 == 1 else -value
    assert seen == subsets
    return total


@st.composite
def networks(draw, max_nodes=6, max_edges=10, max_cap=10, max_commodities=2):
    """Hypothesis strategy for small valid networks."""
    node_count = draw(st.integers(2, max_nodes))
    names = tuple(f"n{i}" for i in range(node_count))
    edge_count = draw(st.integers(1, max_edges))
    edges = []
    for eid in range(edge_count):
        tail = draw(st.integers(0, node_count - 1))
        head = draw(st.integers(0, node_count - 2))
        if head >= tail:
            head += 1
        edges.append(Edge(eid, names[tail], names[head], draw(st.integers(0, max_cap))))
    commodity_count = draw(st.integers(1, max_commodities))
    commodities = []
    for index in range(1, commodity_count + 1):
        source = draw(st.integers(0, node_count - 1))
        sink = draw(st.integers(0, node_count - 2))
        if sink >= source:
            sink += 1
        commodities.append(Commodity(index, names[source], names[sink]))
    return Network(names, tuple(edges), tuple(commodities))
