"""Single-commodity maximum flow and its decomposition into paths.

Both run on the network's integer residual arcs (`Network.arcs`, built
once per network), where arc 2*e is edge e forward and arc 2*e+1 is edge e
backward.  max_flow augments over one list `res` of 2E residual
capacities; pushing d units along arc a is `res[a] -= d; res[a ^ 1] += d`,
so the flow on edge e is `res[2*e + 1]`.  Its paths are Edmonds-Karp's:
the shortest residual paths whose arc positions in `out` order are
lexicographically smallest, found in phases, each labeled by one search
grown from both ends, so the same input always gives the same paths,
flows and min cut.

The search that finds the sink out of reach labels the source side of the
canonical min cut, read and kept on its smaller side.  max_flow then
hands a copy of its flows, kept only for edges that carry flow, to
decompose_cut_paths, which cancels any flow cycles and peels simple
source-sink paths, lowest edge id first.  max_flow checks that each path
uses exactly one of the cut's edges.  Both cost O(support), not O(V + E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .netmodel import Commodity, Edge, Network

__all__ = [
    "ColoredPath",
    "Cut",
    "FlowState",
    "max_flow",
]


@dataclass(frozen=True, slots=True)
class ColoredPath:
    """A source-sink path, the `ordinal`-th of its commodity.

    `bottleneck` is the amount the decomposition assigned to the path.  A
    path's position in the tables' path list names its color.
    """

    commodity: int
    ordinal: int
    edges: tuple[int, ...]
    bottleneck: int

    @property
    def label(self) -> str:
        return f"P{self.commodity}.{self.ordinal}"


@dataclass(frozen=True, slots=True)
class Cut:
    """A cut as its smaller side, in `nodes` order, and whether that is the source side."""

    nodes: tuple[str, ...]
    side: tuple[str, ...]
    side_is_source: bool
    cut_edges: tuple[Edge, ...]
    capacity: int

    @property
    def source_side(self) -> tuple[str, ...]:
        """The source side's node names in `nodes` order: `side` itself, or
        else the nodes outside it, built on each call."""
        if self.side_is_source:
            return self.side
        sink_side = set(self.side)
        return tuple(v for v in self.nodes if v not in sink_side)


@dataclass(frozen=True, slots=True)
class FlowState:
    """One commodity's max flow: `edge_flow` maps each edge with positive
    flow, by ascending id, to its flow before cycle cancelling; its min cut;
    and the paths it decomposes into, numbered from 1 in peeling order."""

    edge_flow: dict[int, int]
    value: int
    min_cut: Cut
    paths: tuple[ColoredPath, ...]


def _search(
    out: Sequence[Sequence[tuple[int, int]]], res: Sequence[int], s: int, t: int
) -> tuple[list[int], list[list[int]] | None]:
    """Breadth-first search over the arcs with positive residual capacity
    `res` (`out` is `Network.arcs.out`), grown one whole level at a time
    from s, or back from t over the arcs a with `res[a ^ 1] > 0`, on the
    side whose frontier is smaller (Pohl's bi-directional search).

    When the sides meet, at depth f from s and b from t, the shortest s-t
    path has D = f + b hops.  Returns (dist, None): the hop distance to t
    of the nodes labeled from t, D - k for each node k < f hops from s,
    and -1 elsewhere.  A node on a shortest path is labeled with its
    distance to t, and a path whose labels fall by one per arc has D arcs,
    so those paths are exactly the shortest ones.

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
    # Level f keeps t's labels: for b = 0, labeling it would give every
    # node on it t's label 0.
    f = len(levels) - 1
    for k in range(f):
        for v in levels[k]:
            dist[v] = f + b - k
    return dist, None


def _source_cut(net: Network, depth: Sequence[int], levels: list[list[int]]) -> Cut:
    """The cut around the source side that _search returned, read on the smaller side."""
    out = net.arcs.out
    # The smaller side pays: always reading the inside measured 10 % slower on
    # large_solve and 21 % on many_commodities.
    if inside := 2 * sum(map(len, levels)) <= len(out):
        side = sorted(v for level in levels for v in level)
        leaving = [a >> 1 for v in side for a, w in out[v] if not a & 1 and depth[w] < 0]
    else:
        side = [v for v, d in enumerate(depth) if d < 0]
        leaving = [a >> 1 for w in side for a, u in out[w] if a & 1 and depth[u] >= 0]
    cut_edges = tuple(net.edges[e] for e in sorted(leaving))
    kept = tuple(net.nodes[v] for v in side)
    return Cut(net.nodes, kept, inside, cut_edges, sum(e.capacity for e in cut_edges))


def max_flow(net: Network, com: Commodity) -> FlowState:
    """Augment commodity `com` to completion; the result carries the
    canonical min cut and the flow's paths (decompose_cut_paths).  Raises
    ValueError for a commodity the network does not declare.

    The augmenting paths are Edmonds-Karp's, found in phases.  Each phase
    labels the nodes by level (_search), then walks from s along the
    first arc in `out` order that has residual capacity and leads one
    label lower, pushing each path's bottleneck before looking for the
    next; the first path it completes is the one a fresh forward search
    would pick.  Each node keeps a pointer to its current arc, and a node
    with none left is a dead end for the phase (Dinic's pruning).  Phases
    repeat until t is out of reach.
    """
    if not (0 < com.index <= len(net.commodities) and net.commodities[com.index - 1] == com):
        raise ValueError(f"{com} is not declared by the network")
    arcs = net.arcs
    out = arcs.out
    si, ti = arcs.index[com.source], arcs.index[com.sink]
    res = [0] * (2 * len(net.edges))
    res[0::2] = arcs.capacity
    value = 0
    # Every arc an augmentation pushed on; a dense scan of res[1::2] for the
    # flow's edges instead measured 6.6 % slower on large_solve.
    pushed: set[int] = set()
    budget = sum(res[a] for a, _ in out[si])
    rounds = 0
    while True:
        dist, levels = _search(out, res, si, ti)
        if levels is not None:  # t is out of reach; dist holds depths from s
            break
        # Every walk down the labels is a shortest path, and every shortest
        # path is one.  That holds for the whole phase: augmenting only adds
        # arcs leading up the labels, so the arcs one label lower only lose
        # capacity, and a node's current arc and a dead end stay put.  So
        # the walk enters a node on no shortest path at most once a phase.
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
                pushed.update(path)
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
    # Only the edges pushed on can carry flow, and only those that do are
    # kept; arc a | 1's residual is the flow on arc a's edge.
    flows = {a >> 1: f for a in sorted(pushed) if (f := res[a | 1])}
    paths = decompose_cut_paths(net, com, dict(flows))
    # Max-flow min-cut duality: the cut's edges are saturated and nothing
    # flows back across it, so each path crosses it once and the paths
    # carry its whole capacity.
    crossing = {e.id for e in cut.cut_edges}
    assert (com.sink in cut.side) != cut.side_is_source
    assert value == cut.capacity, "flow value must equal the reachability cut capacity"
    for p in paths:
        assert sum(e in crossing for e in p.edges) == 1, "path must cross the cut exactly once"
    assert sum(p.bottleneck for p in paths) == value, "amounts must sum to the cut capacity"
    return FlowState(flows, value, cut, paths)


def _cancel_flow_cycles(net: Network, flows: dict[int, int]) -> dict[int, list[tuple[int, int]]]:
    """Zero every directed cycle of the positive-flow subgraph, in place.

    `flows` maps exactly the edges with positive flow, ascending by id, to
    their flow, as FlowState.edge_flow does.
    Backward augmentations can leave flow cycles; they carry no source-sink
    value.  Returns `positive`: per node with positive out-flow before
    cancelling, (edge id, head) for those edges, highest id first.  Each
    pass is a depth-first search from those nodes in order, taking their
    edges lowest id first and skipping those whose flow has dropped to
    zero; the first edge into a node on the current trail closes a cycle,
    whose smallest flow is cancelled before the search starts again.
    """
    index, edges = net.arcs.index, net.edges
    positive: dict[int, list[tuple[int, int]]] = {}
    for eid in reversed(flows):
        edge = edges[eid]
        positive.setdefault(index[edge.tail], []).append((eid, index[edge.head]))
    while True:
        state: dict[int, int] = {}  # 1 on the trail, 2 done; unvisited nodes are absent
        cycle: list[int] | None = None
        for start in sorted(positive):
            if start in state:
                continue
            state[start] = 1
            nodes = [start]  # trail[i] joins nodes[i] to nodes[i + 1]
            trail: list[int] = []
            frames = [reversed(positive[start])]
            while frames:
                for eid, head in frames[-1]:
                    if flows[eid] > 0 and state.get(head) != 2:
                        break
                else:
                    state[nodes.pop()] = 2
                    frames.pop()
                    if trail:
                        trail.pop()
                    continue
                if state.get(head) == 1:
                    cycle = [eid, *trail[nodes.index(head):]]
                    break
                state[head] = 1
                nodes.append(head)
                trail.append(eid)
                frames.append(reversed(positive.get(head, ())))
            if cycle is not None:
                break
        if cycle is None:
            return positive
        delta = min(flows[eid] for eid in cycle)
        for eid in cycle:
            flows[eid] -= delta


# Module-level under this name because perfbench/spans.py times it and counts
# its paths.  The oracle peels its witness flow with it too.
def decompose_cut_paths(net: Network, com: Commodity, flows: dict[int, int]) -> tuple[ColoredPath, ...]:
    """Peel `flows`, positive edge flows ascending by id, into simple paths of `com`, zeroing it.

    Deterministic: flow cycles are cancelled first, then the walk following
    the lowest-id positive-flow edge out of each node is peeled by its
    bottleneck, repeatedly, until the source has no positive out-flow.
    """
    s, t = net.arcs.index[com.source], net.arcs.index[com.sink]
    positive = _cancel_flow_cycles(net, flows)

    def next_edge(v: int) -> tuple[int, int] | None:
        edges = positive.get(v)
        while edges and flows[edges[-1][0]] == 0:
            edges.pop()  # spent for good: flows only fall
        return edges[-1] if edges else None

    paths: list[ColoredPath] = []
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
        assert len(set(visited)) == len(visited), "peeled path is not simple"
        paths.append(ColoredPath(com.index, len(paths) + 1, tuple(walk), amount))
    return tuple(paths)
