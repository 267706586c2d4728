"""Single-commodity maximum flow and its decomposition into paths.

Both run on the network's integer residual arcs (`Network.arcs`, built
once per network): arc 2*e is edge e forward, arc 2*e+1 is edge e
backward, and each node lists its forward arcs, then its backward arcs,
each in edge-id order.

max_flow augments along Edmonds-Karp's paths over one list `res` of 2E
residual capacities; pushing d units along arc a is
`res[a] -= d; res[a ^ 1] += d`, so the flow on edge e is `res[2*e + 1]`.
Edmonds-Karp's search, tried in `out` order (forward before backward,
lower edge ids first), picks the shortest residual path whose arc
positions are lexicographically smallest.  max_flow finds the same paths
in phases, each labeled by one search grown from both ends, so the same
input always gives the same paths, flows and min cut.

The search that finds the sink out of reach labels the source side of the
canonical min cut.  max_flow then hands its flows and those labels to
decompose_cut_paths, which cancels any flow cycles and peels simple
source-sink paths, lowest edge id first, over per-node lists of the edges
carrying flow; each path crosses that cut exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .netmodel import Edge, Network

__all__ = [
    "ColoredPath",
    "Cut",
    "FlowState",
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
    """A max flow for one commodity, its canonical min cut, and the paths
    it decomposes into, numbered from 1 in the order they were peeled."""

    commodity: int
    source: str
    sink: str
    edge_flow: tuple[int, ...]
    value: int
    min_cut: Cut
    paths: tuple[ColoredPath, ...]


def _check_endpoints(net: Network, s: str, t: str) -> None:
    for v in (s, t):
        if v not in net.arcs.index:
            raise ValueError(f"node {v!r} not in network")
    if s == t:
        raise ValueError("source equals sink")


def _search(
    out: Sequence[Sequence[tuple[int, int]]], res: Sequence[int], s: int, t: int
) -> tuple[list[int], list[list[int]] | None]:
    """Breadth-first search over the arcs with positive residual capacity
    `res` (`out` is `Network.arcs.out`), grown one whole level at a time
    from s, or back from t over the arcs a with `res[a ^ 1] > 0`, on the
    side whose frontier is smaller (Pohl's bi-directional search).

    When the sides meet, at depth f from s and b from t, the shortest s-t
    path has D = f + b hops.  Returns (dist, None): the hop distance to t
    of the nodes labeled from t and of every node on a shortest path, -1
    elsewhere.  A sweep over levels f - 1 down to 0 labels the latter: a
    node k hops from s is D - k from t exactly when an arc leads from it
    to a node labeled D - k - 1.

    When t is out of reach, returns (depth, levels): levels[k] lists the
    nodes k hops from s, together the source side of the canonical min
    cut, and depth is -1 exactly outside it.
    """
    depth = [-1] * len(out)
    dist = [-1] * len(out)
    depth[s] = dist[t] = 0
    levels = [[s]]  # levels[k] holds the nodes k hops from s
    back = [t]  # the nodes b hops from t
    b = 0
    met = False
    while levels[-1]:
        grown: list[int] = []
        # Once t's side has run dry, t is out of reach and s's side grows
        # alone until it runs dry too.
        if 0 < len(back) < len(levels[-1]):
            b += 1
            front, labels, others, label, flip = back, dist, depth, b, 1
            back = grown
        else:
            front, labels, others, label, flip = levels[-1], depth, dist, len(levels), 0
            levels.append(grown)
        for v in front:
            for a, w in out[v]:
                if labels[w] < 0 and res[a ^ flip] > 0:
                    labels[w] = label
                    grown.append(w)
                    if others[w] >= 0:
                        met = True
        if met:
            break
    else:
        return depth, levels
    # Level f is not swept: its nodes on shortest paths are b hops from t
    # and labeled already, and for b = 0 the test below would match every
    # unlabeled node.
    f = len(levels) - 1
    for k in range(f - 1, -1, -1):
        nearer = f + b - k - 1
        for v in levels[k]:
            if dist[v] < 0:
                for a, w in out[v]:
                    if res[a] > 0 and dist[w] == nearer:
                        dist[v] = nearer + 1
                        break
    return dist, None


def _source_cut(net: Network, depth: Sequence[int], levels: list[list[int]]) -> Cut:
    """The cut around the source side that _search returned."""
    leaving = []
    for level in levels:
        for v in level:
            for a, w in net.arcs.out[v]:
                if a & 1:  # the backward arcs follow the forward ones
                    break
                if depth[w] < 0:
                    leaving.append(a >> 1)
    cut_edges = tuple(net.edges[e] for e in sorted(leaving))
    side = frozenset(net.nodes[v] for level in levels for v in level)
    return Cut(side, cut_edges, sum(e.capacity for e in cut_edges))


def max_flow(net: Network, s: str, t: str, commodity: int = 0) -> FlowState:
    """Augment to completion; the result carries the canonical min cut
    and the flow's paths (decompose_cut_paths).

    The augmenting paths are Edmonds-Karp's, found in phases.  Each phase
    labels the nodes on shortest s-t paths with their distance to t
    (_search), then walks from s along the first arc in `out` order that
    has residual capacity and leads one step nearer to t, pushing each
    path's bottleneck before looking for the next; the first path it
    completes is the one a fresh forward search would pick.  Each node
    keeps a pointer to its current arc, and a node with none left is a
    dead end for the phase.  Phases repeat until t is out of reach.
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
    while True:
        dist, levels = _search(out, res, si, ti)
        if levels is not None:  # t is out of reach; dist holds depths from s
            break
        # The walk visits only nodes on shortest paths, which all carry
        # their exact distance, so it steps as if every node were labeled.
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
    cut = _source_cut(net, dist, levels)
    assert t not in cut.source_side
    assert value == cut.capacity, "flow value must equal the reachability cut capacity"
    paths = decompose_cut_paths(net, commodity, si, ti, res[1::2], dist, value)
    return FlowState(commodity, s, t, tuple(res[1::2]), value, cut, paths)


def _cancel_flow_cycles(net: Network, flows: list[int]) -> list[list[tuple[int, int]]]:
    """Zero every directed cycle of the positive-flow subgraph, in place.

    Backward augmentations can leave flow cycles; they carry no
    source-sink value.  Returns `positive`: per node v, (edge id, head) for
    the edges leaving v with positive flow before cancelling, in id order;
    the search skips entries whose flow has dropped to zero.  Each pass is
    a depth-first search over the nodes in order; the first edge into a
    node on the current trail closes a cycle, whose smallest flow is
    cancelled before the search starts again.
    """
    tail = net.arcs.tail
    positive: list[list[tuple[int, int]]] = [[] for _ in net.arcs.out]
    for eid, amount in enumerate(flows):
        if amount > 0:
            positive[tail[2 * eid]].append((eid, tail[2 * eid + 1]))
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
            return positive
        delta = min(flows[eid] for eid in cycle)
        for eid in cycle:
            flows[eid] -= delta


# Module-level under this name because perfbench/spans.py times it and counts its paths.
def decompose_cut_paths(
    net: Network, commodity: int, s: int, t: int, flows: list[int], depth: list[int], value: int
) -> tuple[ColoredPath, ...]:
    """Peel max_flow's final edge flows into simple s-t paths, zeroing `flows`.

    `depth` is -1 exactly outside the min cut's source side, as the last
    search left it.  Deterministic: flow cycles are cancelled first, then
    the walk following the lowest-id positive-flow edge out of each node
    is peeled by its bottleneck, repeatedly, until the source has no
    positive out-flow.
    """
    tail = net.arcs.tail
    positive = _cancel_flow_cycles(net, flows)
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
        crossed = sum(depth[tail[2 * e]] >= 0 and depth[tail[2 * e + 1]] < 0 for e in walk)
        assert crossed == 1, "path must cross the min cut exactly once"
        paths.append(ColoredPath(commodity, len(paths) + 1, tuple(walk), amount))
    assert peeled == value, "decomposition amounts must sum to the flow value"
    return tuple(paths)
