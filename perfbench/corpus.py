"""Seeded, stdlib-only instance generators for the benchmark workloads.

Every generator returns network text in the format `mcflow` parses, so the
program under test sees only `.net` files.  The same seed always yields the
same text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 20260816
# The oracle budget of acceptance criterion 5.  At 50 000 instance #042 of
# the default seed truncates and its known counterexample disappears.
ORACLE_BUDGET = 300_000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which CLI operation it runs on what input."""

    name: str
    command: str  # the `mcflow` subcommand timed per instance
    instances: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "large_solve",
            "solve",
            10,
            "sparse 600-node digraphs, 16 commodities: max flow, table builds,"
            " greedy rescans and the O(K*V*E) checker dominate; no oracle",
        ),
        Workload(
            "many_commodities",
            "solve",
            8,
            "18 commodities on a 300-node digraph: the 2^K inclusion-exclusion"
            " bound and greedy over many competing paths dominate, max flow is small",
        ),
        Workload(
            "gap_corpus",
            "gap",
            100,
            "small networks from the acceptance distribution through `gap`:"
            " oracle branch and bound dominates, tables and greedy run per call",
        ),
    )
}


def _render(names, edges, commodities) -> str:
    lines = [f"node {name}" for name in names]
    lines += [f"edge {names[t]} {names[h]} {cap}" for t, h, cap in edges]
    lines += [f"commodity {names[s]} {names[t]}" for s, t in commodities]
    return "\n".join(lines) + "\n"


def regular_digraph(
    rng: random.Random, nodes: int, degree: int, commodities: int, max_cap: int = 20
) -> str:
    """Random digraph where every node has `degree` out- and in-edges.

    Fixing both degrees keeps the work per instance close to its mean, so a
    run's median over a few instances moves little from seed to seed.
    Parallel edges can occur; self-loops are rewired away.
    """
    tails = [v for v in range(nodes) for _ in range(degree)]
    heads = tails.copy()
    rng.shuffle(heads)
    for position, (tail, head) in enumerate(zip(tails, heads)):
        while head == tail:
            other = rng.randrange(len(heads))
            if heads[other] != tail and tails[other] != head:
                heads[position], heads[other] = heads[other], head
                head = heads[position]
    edges = [(t, h, rng.randint(1, max_cap)) for t, h in zip(tails, heads)]
    pairs = [tuple(rng.sample(range(nodes), 2)) for _ in range(commodities)]
    return _render([f"v{i}" for i in range(nodes)], edges, pairs)


def acceptance_network(rng: random.Random) -> str:
    """One network of acceptance criterion 5's corpus.

    Makes exactly the `rng` calls of the test suite's `random_network` with
    max_nodes=8, max_edges=16, max_cap=10 and 2-3 commodities, so the same
    seed yields the same instances.
    """
    node_count = rng.randint(2, 8)
    edges = []
    for _ in range(rng.randint(1, 16)):
        tail, head = rng.sample(range(node_count), 2)
        edges.append((tail, head, rng.randint(0, 10)))
    pairs = [tuple(rng.sample(range(node_count), 2)) for _ in range(rng.randint(2, 3))]
    return _render([f"v{i}" for i in range(node_count)], edges, pairs)


def generate(workload: Workload, seed: int) -> list[str]:
    """The workload's instances for `seed`, as network text."""
    rng = random.Random(seed)
    if workload.name == "large_solve":
        return [regular_digraph(rng, 600, 4, 16) for _ in range(workload.instances)]
    if workload.name == "many_commodities":
        return [regular_digraph(rng, 300, 4, 18) for _ in range(workload.instances)]
    if workload.name == "gap_corpus":
        return [acceptance_network(rng) for _ in range(workload.instances)]
    raise ValueError(f"unknown workload {workload.name!r}")
