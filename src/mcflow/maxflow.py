"""Single-commodity maximum flow and its decomposition.

max_flow runs Edmonds-Karp on one mutable flow list: each augmentation is
one breadth-first residual search (_residual_search) over the network's
cached per-node edge lists (Network.adjacency), built once per network.
The search has a fixed tie-break (forward residual edges before backward
ones at the same depth, lower edge ids first), so repeated runs produce
identical paths, identical flows, and an identical min cut.  The search
that fails to reach the sink reaches exactly the canonical source side:
the min cut returned is that node set together with the saturated edges
leaving it.

decompose_cut_paths peels a max flow into simple source-sink paths, lowest
edge id first, after cancelling any flow cycles.  Every peeled path crosses
the min cut exactly once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .netmodel import Edge, Network, path_nodes

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


Step = tuple[str, int, bool]  # (previous node, edge id, traversed forward?)


def _residual_search(
    net: Network, flows: Sequence[int], s: str, t: str
) -> dict[str, Step | None]:
    """Breadth-first search over the residual graph of `flows` from s.

    Maps every node labeled before t was reached to the step that reached
    it (s maps to None).  At equal depth forward residual edges win over
    backward ones and lower edge ids win within each kind, so the parent
    steps trace the canonical shortest augmenting path.  When t is not
    reached the keys are exactly the nodes residually reachable from s.
    """
    out, inc = net.adjacency
    parent: dict[str, Step | None] = {s: None}
    queue = deque([s])
    while queue and t not in parent:
        u = queue.popleft()
        for edge in out[u]:  # forward residual edges first
            if edge.head not in parent and flows[edge.id] < edge.capacity:
                parent[edge.head] = (u, edge.id, True)
                queue.append(edge.head)
        for edge in inc[u]:  # then backward residual edges
            if edge.tail not in parent and flows[edge.id] > 0:
                parent[edge.tail] = (u, edge.id, False)
                queue.append(edge.tail)
    return parent


def _source_cut(net: Network, source_side: frozenset[str]) -> Cut:
    cut_edges = tuple(
        e for e in net.edges if e.tail in source_side and e.head not in source_side
    )
    return Cut(source_side, cut_edges, sum(e.capacity for e in cut_edges))


def max_flow(net: Network, s: str, t: str, commodity: int = 0) -> FlowState:
    """Augment to completion; the result carries the canonical min cut."""
    _check_endpoints(net, s, t)
    flows = [0] * len(net.edges)
    value = 0
    budget = sum(e.capacity for e in net.adjacency[0][s])
    rounds = 0
    while True:
        parent = _residual_search(net, flows, s, t)
        if t not in parent:
            break
        steps: list[tuple[int, bool]] = []
        v = t
        while v != s:
            v, eid, forward = parent[v]  # type: ignore[misc]
            steps.append((eid, forward))
        leeway = min(
            net.edges[eid].capacity - flows[eid] if forward else flows[eid]
            for eid, forward in steps
        )
        for eid, forward in steps:
            flows[eid] += leeway if forward else -leeway
        value += leeway
        rounds += 1
        assert rounds <= budget, "augmentation count exceeded total source capacity"
    cut = _source_cut(net, frozenset(parent))
    assert t not in cut.source_side
    assert value == cut.capacity, "flow value must equal the reachability cut capacity"
    return FlowState(commodity, s, t, tuple(flows), value, cut)


def _find_flow_cycle(net: Network, flows: list[int]) -> list[int] | None:
    """Edge ids of one directed cycle in the positive-flow subgraph."""
    out = net.adjacency[0]
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


def _cancel_flow_cycles(net: Network, flows: list[int]) -> None:
    # Backward augmentations can leave flow cycles; they carry no
    # source-sink value, so zero them before peeling paths.
    while True:
        cycle = _find_flow_cycle(net, flows)
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
    reached = _residual_search(net, f.edge_flow, f.source, f.sink)
    if f.sink in reached:
        raise ValueError("flow is not maximal; decomposition requires a max flow")
    cut = f.min_cut if f.min_cut is not None else _source_cut(net, frozenset(reached))
    cut_ids = {e.id for e in cut.cut_edges}
    out = net.adjacency[0]
    flows = list(f.edge_flow)
    _cancel_flow_cycles(net, flows)
    paths: list[ColoredPath] = []
    peeled = 0
    while any(flows[e.id] > 0 for e in out[f.source]):
        walk: list[int] = []
        v = f.source
        while v != f.sink:
            candidates = [e for e in out[v] if flows[e.id] > 0]
            assert candidates, f"flow conservation broken at {v!r}"
            walk.append(candidates[0].id)
            v = candidates[0].head
            assert len(walk) <= len(net.edges), "cycle encountered during peeling"
        amount = min(flows[eid] for eid in walk)
        for eid in walk:
            flows[eid] -= amount
        peeled += amount
        visited = path_nodes(net, walk)
        assert len(set(visited)) == len(visited), "peeled path is not simple"
        assert sum(1 for eid in walk if eid in cut_ids) == 1, (
            "path must cross the min cut exactly once"
        )
        paths.append(ColoredPath(f.commodity, len(paths) + 1, tuple(walk), amount))
    assert peeled == f.value, "decomposition amounts must sum to the flow value"
    return paths
