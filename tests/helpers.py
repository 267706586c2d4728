"""Shared generators and independent oracles for the test suite.

The oracles here are deliberately written from scratch against the
definitions (subset enumeration, plain breadth-first search, itertools
products) so library results are checked by a second route, not by
themselves.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import deque
from typing import NamedTuple, Sequence

from hypothesis import strategies as st

from mcflow import (
    ACTIVE,
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_MAX_PATHS,
    DISCARDED,
    ColoredPath,
    Commodity,
    Cut,
    Edge,
    FlowState,
    Network,
    OracleLimitError,
    OracleResult,
    FlowTables,
    enumerate_paths,
    path_nodes,
)
from mcflow.tables import ship_position


def random_network(rng, max_nodes=8, max_edges=16, max_cap=10, commodity_range=(1, 1)):
    """Seeded random network; always passes validate_network."""
    node_count = rng.randint(2, max_nodes)
    names = tuple(f"v{i}" for i in range(node_count))
    edge_count = rng.randint(1, max_edges)
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


def reference_max_flow(net: Network, s: str, t: str, commodity: int = 0) -> FlowState:
    """Stepwise Edmonds-Karp: a fresh search and a new flow tuple per
    augmentation, then the min cut from a separate reachability pass and
    the paths from the reference decomposition."""
    flows = (0,) * len(net.edges)
    value = 0
    while (found := reference_augmenting_path(net, flows, s, t)) is not None:
        flows = reference_augment(net, flows, found)
        value += found.leeway
    f = FlowState(commodity, s, t, flows, value, reference_cut(net, flows, s), ())
    return dataclasses.replace(f, paths=tuple(reference_decompose_cut_paths(net, f)))


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
    return Cut(frozenset(side), cut_edges, sum(e.capacity for e in cut_edges))


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


def reference_decompose_cut_paths(net: Network, f: FlowState) -> list[ColoredPath]:
    """The dict-based decomposition of a max flow `f` that max_flow's
    decompose_cut_paths replaced: a restarted depth-first cycle search,
    then peeling walks that re-filter each node's out-edges at every step.

    Deterministic: flow cycles are cancelled first, then the walk following
    the lowest-id positive-flow edge out of each node is peeled by its
    bottleneck, repeatedly, until the source has no positive out-flow.
    Each path must cross `f.min_cut` exactly once.
    """
    cut_ids = {e.id for e in f.min_cut.cut_edges}
    out = reference_out_edges(net)
    flows = list(f.edge_flow)
    reference_cancel_flow_cycles(net, flows)
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


def audit_tables(tables: FlowTables) -> list[str]:
    """Cross-check every table column against its defining rule; [] when
    clean.  Each column is recomputed from the paths, their statuses and
    the residuals, without the incremental updates ship_position makes."""
    problems: list[str] = []
    net = tables.network
    expected_colors: list[set[int]] = [set() for _ in net.edges]
    expected_paths: list[list[int]] = [[] for _ in net.edges]
    for position, path in enumerate(tables.paths):
        for eid in path.edges:
            expected_paths[eid].append(position)
            if tables.path_status[position] != DISCARDED:
                expected_colors[eid].add(position)
    for edge in net.edges:
        if tables.edge_colors[edge.id] != expected_colors[edge.id]:
            problems.append(f"edge {edge.id}: color set out of sync")
        if tables.edge_paths[edge.id] != expected_paths[edge.id]:
            problems.append(f"edge {edge.id}: path index out of sync")
        residual = tables.edge_residual[edge.id]
        if not 0 <= residual <= edge.capacity:
            problems.append(
                f"edge {edge.id}: residual {residual} outside [0, {edge.capacity}]"
            )
    for position, path in enumerate(tables.paths):
        bottleneck = min(tables.edge_residual[eid] for eid in path.edges)
        if tables.path_bottleneck[position] != bottleneck:
            problems.append(f"{path.label}: bottleneck column out of sync")
        union: set[int] = set().union(*(tables.edge_colors[eid] for eid in path.edges))
        if tables.path_color_count[position] != len(union):
            problems.append(f"{path.label}: color count column out of sync")
        if tables.path_status[position] == ACTIVE and position not in union:
            problems.append(f"{path.label}: active path lost its own color")
    return problems


def full_scan_greedy(tables: FlowTables, after_step=None):
    """Reference selection rule: the minimum over every active path by
    (color count, commodity, ordinal), shipped through ship_position, with
    the discards of each step collected by a scan of all paths.

    Returns the shipments as (position, amount), the discarded positions
    in discard order, and the per-(commodity, edge) flow.
    """
    paths = tables.paths
    status = tables.path_status
    shipments, discarded, edge_flow = [], [], {}
    recorded = set()
    while True:
        active = [p for p in range(len(paths)) if status[p] == ACTIVE]
        if not active:
            break
        choice = min(
            active,
            key=lambda p: (tables.path_color_count[p], paths[p].commodity, paths[p].ordinal),
        )
        amount = tables.path_bottleneck[choice]
        ship_position(tables, choice, amount)
        shipments.append((choice, amount))
        commodity = paths[choice].commodity
        for eid in paths[choice].edges:
            edge_flow[(commodity, eid)] = edge_flow.get((commodity, eid), 0) + amount
        for p in range(len(paths)):
            if status[p] == DISCARDED and p not in recorded:
                recorded.add(p)
                discarded.append(p)
        if after_step is not None:
            after_step(tables)
    return shipments, discarded, edge_flow


def reference_optimal_value(
    net: Network,
    max_paths: int = DEFAULT_MAX_PATHS,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    catalog: Sequence[ColoredPath] | None = None,
) -> OracleResult:
    """The recursive two-pass branch and bound that optimal_value replaced,
    kept unchanged as its reference: same visit order, prunes, budget and
    result.  Recurses once per catalog path, so keep catalogs small.

    Exact integral optimum over simple-path flows, within limits.

    Independent of path enumeration order: the optimum is a property of the
    instance, and the witness is canonical (lexicographically smallest over
    the catalog order used).  Pass `catalog` to restrict the search to a
    known path set.
    """
    if catalog is None:
        try:
            catalog = [
                path
                for com in net.commodities
                for path in enumerate_paths(net, com, max_paths)
            ]
        except OracleLimitError:
            return OracleResult(0, (), 0, True, ())
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

    def ascend(k: int, current: int) -> bool:
        # First completion reaching best_value, in ascending amount order,
        # is the lexicographically smallest optimal vector.
        nonlocal explored, budget_hit
        if budget_hit:
            return False
        explored += 1
        if explored > max_candidates:
            budget_hit = True
            return False
        if k == m:
            return current == best_value
        if current + static_suffix[k] < best_value:
            return False
        if current + remaining_bound(k) < best_value:
            return False
        for a in range(0, path_cap(k) + 1):
            amounts[k] = a
            for eid in paths[k].edges:
                residual[eid] -= a
            hit = ascend(k + 1, current + a)
            for eid in paths[k].edges:
                residual[eid] += a
            if hit:
                return True
            amounts[k] = 0
            if budget_hit:
                return False
        return False

    descend(0, 0)
    if budget_hit:
        return OracleResult(best_value, tuple(best_vector), explored, True, paths)
    found = ascend(0, 0)
    if budget_hit:
        return OracleResult(best_value, tuple(best_vector), explored, True, paths)
    assert found, "optimum witnessed in the first pass must be recoverable"
    return OracleResult(best_value, tuple(amounts), explored, False, paths)


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
