"""Single-commodity maximum flow and its decomposition.

Both run on the network's integer residual arcs (`Network.arcs`, built
once per network): arc 2*e is edge e forward, arc 2*e+1 is edge e
backward, and each node lists its forward arcs, then its backward arcs,
each in edge-id order.

max_flow is Edmonds-Karp over one list `res` of 2E residual capacities:
each augmentation is one breadth-first search (_residual_search) that
records the arc labeling each node, and pushing d units along arc a is
`res[a] -= d; res[a ^ 1] += d`, so the flow on edge e is `res[2*e + 1]`.
The search's fixed arc order (forward before backward at the same depth,
lower edge ids first) makes repeated runs produce identical paths, flows
and min cut.  The search that fails to reach the sink visits exactly the
canonical source side: the min cut returned is that node set together
with the edges leaving it.

decompose_cut_paths checks maximality with the same search, then works on
per-node lists of the edges carrying flow, built once per call: it cancels
any flow cycles and peels simple source-sink paths, lowest edge id first.
Every peeled path crosses the min cut exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub
from typing import Sequence

from .netmodel import Edge, Network

__all__ = [
    "ACTIVE",
    "Color",
    "ColoredPath",
    "Cut",
    "DISCARDED",
    "FlowState",
    "USED",
    "decompose_cut_paths",
    "max_flow",
]

ACTIVE = "active"
USED = "used"
DISCARDED = "discarded"


@dataclass(frozen=True)
class Color:
    """Label owned by exactly one decomposed path."""

    id: int
    commodity: int
    ordinal: int
    name: str


@dataclass
class ColoredPath:
    """One decomposed source-sink path.

    `bottleneck` is the amount the decomposition assigned to the path;
    the live residual bottleneck is tracked separately by the tables.
    """

    commodity: int
    ordinal: int
    edges: tuple[int, ...]
    bottleneck: int
    color: Color | None = None
    status: str = ACTIVE

    @property
    def label(self) -> str:
        return f"P{self.commodity}.{self.ordinal}"

    @property
    def key(self) -> tuple[int, int]:
        return (self.commodity, self.ordinal)


@dataclass(frozen=True)
class Cut:
    """Source-side node set with the edges (and capacity) leaving it."""

    source_side: frozenset[str]
    cut_edges: tuple[Edge, ...]
    capacity: int


@dataclass(frozen=True)
class FlowState:
    """A feasible flow for one commodity; min_cut is set at termination."""

    commodity: int
    source: str
    sink: str
    edge_flow: tuple[int, ...]
    value: int
    min_cut: Cut | None = None


def _check_endpoints(net: Network, s: str, t: str) -> None:
    for v in (s, t):
        if v not in net.node_set:
            raise ValueError(f"node {v!r} not in network")
    if s == t:
        raise ValueError("source equals sink")


def _residual_search(
    out: Sequence[Sequence[tuple[int, int]]], res: Sequence[int], s: int, t: int
) -> tuple[list[int], list[int]]:
    """Breadth-first search from s over the arcs with positive residual
    capacity `res`; `out` is `Network.arcs.out`.

    Returns the arc that labeled each node (-1 for unlabeled nodes, -2 for
    s) and the labeled nodes in visit order.  Arcs are tried in `out`
    order, so at equal depth forward arcs win over backward ones and lower
    edge ids win within each kind: the parent arcs trace the canonical
    shortest augmenting path.  The search stops as soon as t is labeled;
    when t is not reached, the visited nodes are exactly those residually
    reachable from s.
    """
    parent = [-1] * len(out)
    parent[s] = -2
    queue = [s]
    for u in queue:  # the list grows while it is read: a FIFO queue
        for a, w in out[u]:
            if parent[w] == -1 and res[a] > 0:
                parent[w] = a
                if w == t:
                    return parent, queue
                queue.append(w)
    return parent, queue


def _source_cut(net: Network, source_side: Sequence[int]) -> Cut:
    inside = [False] * len(net.nodes)
    for v in source_side:
        inside[v] = True
    tail = net.arcs.tail
    cut_edges = tuple(
        e for e in net.edges if inside[tail[2 * e.id]] and not inside[tail[2 * e.id + 1]]
    )
    return Cut(
        frozenset(net.nodes[v] for v in source_side),
        cut_edges,
        sum(e.capacity for e in cut_edges),
    )


def _residuals(net: Network, edge_flow: Sequence[int]) -> list[int]:
    """Residual capacity per arc: spare capacity forward, flow backward."""
    res = [0] * (2 * len(net.edges))
    res[0::2] = map(sub, net.arcs.capacity, edge_flow)
    res[1::2] = edge_flow
    return res


def max_flow(net: Network, s: str, t: str, commodity: int = 0) -> FlowState:
    """Augment to completion; the result carries the canonical min cut."""
    _check_endpoints(net, s, t)
    arcs = net.arcs
    tail = arcs.tail
    si, ti = arcs.index[s], arcs.index[t]
    res = [0] * (2 * len(net.edges))
    res[0::2] = arcs.capacity
    value = 0
    budget = sum(res[a] for a, _ in arcs.out[si])
    rounds = 0
    while True:
        parent, reached = _residual_search(arcs.out, res, si, ti)
        if parent[ti] == -1:
            break
        path = []
        v = ti
        while v != si:
            a = parent[v]
            path.append(a)
            v = tail[a]
        leeway = min(res[a] for a in path)
        for a in path:
            res[a] -= leeway
            res[a ^ 1] += leeway
        value += leeway
        rounds += 1
        assert rounds <= budget, "augmentation count exceeded total source capacity"
    cut = _source_cut(net, reached)
    assert t not in cut.source_side
    assert value == cut.capacity, "flow value must equal the reachability cut capacity"
    return FlowState(commodity, s, t, tuple(res[1::2]), value, cut)


def _cancel_flow_cycles(positive: list[list[tuple[int, int]]], flows: list[int]) -> None:
    """Zero every directed cycle of the positive-flow subgraph.

    Backward augmentations can leave flow cycles; they carry no
    source-sink value.  `positive[v]` lists (edge id, head) for the edges
    leaving node v in id order; entries whose flow has dropped to zero are
    skipped.  Each pass is a depth-first search over the nodes in order;
    the first edge into a node on the current trail closes a cycle, whose
    smallest flow is cancelled before the search starts again.
    """
    while True:
        state = [0] * len(positive)  # 0 unvisited, 1 on the trail, 2 done
        cycle: list[int] | None = None
        for start in range(len(positive)):
            if state[start] or not positive[start]:  # no flow out, no cycle
                continue
            state[start] = 1
            nodes = [start]  # trail[i] joins nodes[i] to nodes[i + 1]
            trail: list[int] = []
            frames = [iter(positive[start])]
            while frames:
                for eid, head in frames[-1]:
                    if flows[eid] > 0 and state[head] != 2:
                        break
                else:
                    state[nodes.pop()] = 2
                    frames.pop()
                    if trail:
                        trail.pop()
                    continue
                if state[head] == 1:
                    cycle = [eid, *trail[nodes.index(head):]]
                    break
                state[head] = 1
                nodes.append(head)
                trail.append(eid)
                frames.append(iter(positive[head]))
            if cycle is not None:
                break
        if cycle is None:
            return
        delta = min(flows[eid] for eid in cycle)
        for eid in cycle:
            flows[eid] -= delta


def decompose_cut_paths(net: Network, f: FlowState) -> list[ColoredPath]:
    """Peel a max flow into simple source-sink paths (colors unassigned).

    Deterministic: flow cycles are cancelled first, then the walk following
    the lowest-id positive-flow edge out of each node is peeled by its
    bottleneck, repeatedly, until the source has no positive out-flow.
    """
    _check_endpoints(net, f.source, f.sink)
    arcs = net.arcs
    s, t = arcs.index[f.source], arcs.index[f.sink]
    parent, reached = _residual_search(arcs.out, _residuals(net, f.edge_flow), s, t)
    if parent[t] != -1:
        raise ValueError("flow is not maximal; decomposition requires a max flow")
    cut = f.min_cut if f.min_cut is not None else _source_cut(net, reached)
    cut_ids = {e.id for e in cut.cut_edges}
    flows = list(f.edge_flow)
    tail = arcs.tail
    positive: list[list[tuple[int, int]]] = [[] for _ in arcs.out]
    for eid, amount in enumerate(flows):
        if amount > 0:
            positive[tail[2 * eid]].append((eid, tail[2 * eid + 1]))
    _cancel_flow_cycles(positive, flows)
    first = [0] * len(positive)  # entries before it carry no flow any more

    def next_edge(v: int) -> tuple[int, int] | None:
        edges = positive[v]
        i = first[v]
        while i < len(edges) and flows[edges[i][0]] == 0:
            i += 1
        first[v] = i
        return edges[i] if i < len(edges) else None

    paths: list[ColoredPath] = []
    peeled = 0
    while next_edge(s) is not None:
        walk: list[int] = []
        visited = [s]
        v = s
        while v != t:
            step = next_edge(v)
            assert step is not None, f"flow conservation broken at {net.nodes[v]!r}"
            walk.append(step[0])
            v = step[1]
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
        paths.append(ColoredPath(f.commodity, len(paths) + 1, tuple(walk), amount))
    assert peeled == f.value, "decomposition amounts must sum to the flow value"
    return paths
