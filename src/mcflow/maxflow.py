"""Single-commodity maximum flow and its decomposition.

Both run on the network's integer residual arcs (`Network.arcs`, built
once per network): arc 2*e is edge e forward, arc 2*e+1 is edge e
backward, and each node lists its forward arcs, then its backward arcs,
each in edge-id order.

max_flow augments along Edmonds-Karp's paths over one list `res` of 2E
residual capacities; pushing d units along arc a is
`res[a] -= d; res[a ^ 1] += d`, so the flow on edge e is `res[2*e + 1]`.
Edmonds-Karp's breadth-first search, tried in `out` order (forward before
backward, lower edge ids first), picks the shortest residual path whose
arc positions are lexicographically smallest.  max_flow finds the same
paths in phases: one breadth-first search back from the sink labels the
nodes with their distance to it, then walks from the source along the
first arc one step nearer, one path at a time, until no such walk
reaches the sink.  Augmenting only adds arcs that lead away from the
sink, so the labels stay exact for the whole phase.  The same input
therefore always gives the same paths, flows and min cut.  Once the sink
is out of reach, one forward search (_residual_search) labels exactly the
canonical source side: the min cut returned is that node set together
with the edges leaving it.

decompose_cut_paths checks maximality with the same search, then works on
per-node lists of the edges carrying flow, built once per call: it cancels
any flow cycles and peels simple source-sink paths, lowest edge id first.
Every max flow leaves the same nodes residually reachable, so each peeled
path crosses the cut that search labels, the canonical min cut, exactly
once; the flow's own `min_cut` is never read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import sub
from typing import Sequence

from .netmodel import Edge, Network

__all__ = [
    "ColoredPath",
    "Cut",
    "FlowState",
    "decompose_cut_paths",
    "max_flow",
]


@dataclass(frozen=True)
class ColoredPath:
    """A source-sink path, the `ordinal`-th of its commodity.

    `bottleneck` is the amount the decomposition assigned to the path, or,
    for the oracle's enumerated paths, its smallest capacity.  A decomposed
    path's status and live residual bottleneck are columns of the tables,
    indexed by the path's position there, and that position names its
    color.
    """

    commodity: int
    ordinal: int
    edges: tuple[int, ...]
    bottleneck: int

    @property
    def label(self) -> str:
        return f"P{self.commodity}.{self.ordinal}"


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
        if v not in net.arcs.index:
            raise ValueError(f"node {v!r} not in network")
    if s == t:
        raise ValueError("source equals sink")


def _residual_search(
    out: Sequence[Sequence[tuple[int, int]]], res: Sequence[int], s: int, t: int
) -> list[bool] | None:
    """Breadth-first search from s over the arcs with positive residual
    capacity `res`; `out` is `Network.arcs.out`.

    Returns None as soon as t is labeled.  Otherwise returns the labels,
    one flag per node, set exactly for the nodes residually reachable from
    s: the source side of the canonical min cut.
    """
    seen = [False] * len(out)
    seen[s] = True
    queue = [s]
    for u in queue:  # the list grows while it is read: a FIFO queue
        for a, w in out[u]:
            if not seen[w] and res[a] > 0:
                if w == t:
                    return None
                seen[w] = True
                queue.append(w)
    return seen


def _source_cut(net: Network, inside: Sequence[bool]) -> Cut:
    tail = net.arcs.tail
    cut_edges = tuple(
        e
        for e, u, w in zip(net.edges, tail[0::2], tail[1::2])
        if inside[u] and not inside[w]
    )
    return Cut(
        frozenset(compress(net.nodes, inside)),
        cut_edges,
        sum(e.capacity for e in cut_edges),
    )


def _residuals(net: Network, edge_flow: Sequence[int]) -> list[int]:
    """Residual capacity per arc: spare capacity forward, flow backward."""
    res = [0] * (2 * len(net.edges))
    res[0::2] = map(sub, net.arcs.capacity, edge_flow)
    res[1::2] = edge_flow
    return res


def _distances_to(
    out: Sequence[Sequence[tuple[int, int]]], res: Sequence[int], s: int, t: int
) -> list[int] | None:
    """Breadth-first search back from t: the residual hop distance to t of
    every node nearer to t than s, and of s; -1 for the nodes not labeled.

    An arc a = (v, w) in `out[v]` has its reverse a ^ 1 entering v from w,
    so `res[a ^ 1] > 0` means w reaches v.  The search stops as soon as s
    is labeled; returns None when s cannot reach t.
    """
    dist = [-1] * len(out)
    dist[t] = 0
    queue = [t]
    for v in queue:  # the list grows while it is read: a FIFO queue
        d = dist[v] + 1
        for a, w in out[v]:
            if dist[w] == -1 and res[a ^ 1] > 0:
                dist[w] = d
                if w == s:
                    return dist
                queue.append(w)
    return None


def max_flow(net: Network, s: str, t: str, commodity: int = 0) -> FlowState:
    """Augment to completion; the result carries the canonical min cut.

    The augmenting paths are Edmonds-Karp's, found in phases.  Each phase
    labels nodes with their distance to t (_distances_to), then walks from
    s along the first arc in `out` order that has residual capacity and
    leads one step nearer to t, and pushes each path's own bottleneck
    before looking for the next.  Each node keeps a pointer to its current
    arc, and a node with no arc left is a dead end for the rest of the
    phase.  The first path the walk completes is the shortest path with
    the lexicographically smallest arc positions, the one a fresh forward
    search would pick.  When s has no arc left, the next phase relabels;
    when t is out of reach, one forward search gives the min cut.
    """
    _check_endpoints(net, s, t)
    arcs = net.arcs
    out = arcs.out
    si, ti = arcs.index[s], arcs.index[t]
    res = [0] * (2 * len(net.edges))
    res[0::2] = arcs.capacity
    value = 0
    budget = sum(res[a] for a, _ in out[si])
    rounds = 0
    while (dist := _distances_to(out, res, si, ti)) is not None:
        # The labels stay exact for the whole phase: augmenting only adds
        # arcs leading away from t, so the arcs one step nearer to t only
        # lose capacity, and a node's current arc and a dead end stay put.
        current = [0] * len(out)
        path: list[int] = []  # arcs from s; path[i] leaves nodes[i]
        nodes = [si]
        while True:
            u = nodes[-1]
            if u == ti:
                left = [res[a] for a in path]
                leeway = min(left)
                for a in path:
                    res[a] -= leeway
                    res[a ^ 1] += leeway
                value += leeway
                rounds += 1
                assert rounds <= budget, "augmentation count exceeded total source capacity"
                # walking from s again retraces the path up to the first
                # arc it saturated, so resume at that arc's tail
                k = left.index(leeway)
                del path[k:], nodes[k + 1 :]
                continue
            edges = out[u]
            nearer = dist[u] - 1
            i = current[u]
            while i < len(edges):
                a, w = edges[i]
                if res[a] > 0 and dist[w] == nearer:
                    break
                i += 1
            current[u] = i
            if i < len(edges):
                path.append(a)
                nodes.append(w)
            elif u == si:
                break
            else:
                dist[u] = -1  # a dead end for the rest of the phase
                path.pop()
                nodes.pop()
    inside = _residual_search(out, res, si, ti)
    assert inside is not None, "the sink is still reachable after the last phase"
    cut = _source_cut(net, inside)
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
    """Peel a max flow into simple source-sink paths.

    Deterministic: flow cycles are cancelled first, then the walk following
    the lowest-id positive-flow edge out of each node is peeled by its
    bottleneck, repeatedly, until the source has no positive out-flow.
    """
    _check_endpoints(net, f.source, f.sink)
    arcs = net.arcs
    s, t = arcs.index[f.source], arcs.index[f.sink]
    inside = _residual_search(arcs.out, _residuals(net, f.edge_flow), s, t)
    if inside is None:
        raise ValueError("flow is not maximal; decomposition requires a max flow")
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
        crossed = sum(inside[tail[2 * e]] and not inside[tail[2 * e + 1]] for e in walk)
        assert crossed == 1, "path must cross the min cut exactly once"
        paths.append(ColoredPath(f.commodity, len(paths) + 1, tuple(walk), amount))
    assert peeled == f.value, "decomposition amounts must sum to the flow value"
    return paths
