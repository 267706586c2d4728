"""Acceptance gate: one test per release criterion, each ending in a
single printed PASS line (run with -s to see them; a failed assertion is
the corresponding FAIL).

Criteria:
  1. the two-commodity reference network solves to the frozen values
  2. max flow equals both its own min cut and a brute-force cut minimum
  3. decompositions sum to the flow value and cross the min cut once
  4. greedy assignments are always feasible
  5. greedy never beats the exact optimum, which the bounds dominate;
     an optimum proved by the cut bound alone passes an independent
     certificate; the gap-zero fraction is recorded, counterexamples are
     archived in a temporary directory, and the checked-in ones are found
     again
  6. the cut-intersection bound matches direct subset-sum evaluation
  7. every subcommand is byte-for-byte reproducible on every fixture
"""

import contextlib
import io
import random
import time
from functools import lru_cache
from pathlib import Path

import pytest

from helpers import (
    brute_force_min_cut,
    certified_cut_union_bound,
    checked_term_sum,
    direct_inclusion_exclusion,
    random_network,
    regular_network,
    render_network,
)
from mcflow import (
    Cut,
    Edge,
    Network,
    build_tables,
    gap_report,
    greedy_solve,
    intersection_terms,
    max_flow,
    parse_network,
    upper_bounds,
    validate_assignment,
)
from mcflow.cli import run

DATA = Path(__file__).parent / "data"
COUNTEREXAMPLES = Path(__file__).parent / "counterexamples"
SEED = 20260816
ORACLE_BUDGET = 300_000


def _report(number: int, name: str, detail: str = "") -> None:
    print(f"criterion {number} ({name}): PASS{detail}")


@lru_cache(maxsize=1)
def _single_commodity_corpus():
    rng = random.Random(SEED)
    return [
        random_network(rng, max_nodes=10, max_edges=20, max_cap=10)
        for _ in range(500)
    ]


@lru_cache(maxsize=1)
def _multicommodity_corpus():
    rng = random.Random(SEED)
    return [
        random_network(rng, max_nodes=8, max_edges=16, max_cap=10, commodity_range=(2, 3))
        for _ in range(500)
    ]


def test_criterion_1_reference_network():
    started = time.perf_counter()
    net = parse_network((DATA / "two_commodity.net").read_text(encoding="utf-8"))
    tables = build_tables(net)
    counts = {
        path.label: tables.path_color_count[position]
        for position, path in enumerate(tables.paths)
    }
    assignment = greedy_solve(tables)
    elapsed = time.perf_counter() - started
    assert counts == {"P1.1": 1, "P1.2": 3, "P2.1": 2, "P2.2": 2}
    assert [(p.label, amount) for p, amount in assignment.shipments] == [
        ("P1.1", 5),
        ("P2.1", 10),
        ("P2.2", 10),
    ]
    assert {p.label for p in assignment.discarded} == {"P1.2"}
    assert assignment.per_commodity_value == {1: 5, 2: 20}
    assert assignment.total_value == 25
    assert elapsed < 1.0
    _report(1, "reference network", f" ({elapsed:.3f}s)")


def test_criterion_2_max_flow_equals_min_cut():
    started = time.perf_counter()
    for net in _single_commodity_corpus():
        com = net.commodities[0]
        flow = max_flow(net, com)
        assert flow.value == flow.min_cut.capacity
        assert flow.value == brute_force_min_cut(net, com.source, com.sink)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(2, "max flow equals min cut", f" (500 networks, {elapsed:.1f}s)")


def test_criterion_3_decomposition_structure():
    for net in _single_commodity_corpus():
        com = net.commodities[0]
        flow = max_flow(net, com)
        assert sum(p.bottleneck for p in flow.paths) == flow.value
        cut_ids = {e.id for e in flow.min_cut.cut_edges}
        for p in flow.paths:
            assert sum(1 for eid in p.edges if eid in cut_ids) == 1
    _report(3, "decomposition structure", " (500 networks)")


def test_criterion_4_greedy_feasibility():
    for net in _multicommodity_corpus():
        assignment = greedy_solve(build_tables(net))
        assert validate_assignment(net, assignment) == []
    _report(4, "greedy feasibility", " (500 instances)")


def test_criterion_5_optimality_gap(tmp_path):
    golden = parse_network((DATA / "two_commodity.net").read_text(encoding="utf-8"))
    assert gap_report(golden).gap == 0

    usable = 0
    zero_gap = 0
    truncated = 0
    archived = []
    for position, net in enumerate(_multicommodity_corpus()):
        report = gap_report(net, max_candidates=ORACLE_BUDGET)
        if report.optimum == report.inclusion_exclusion:
            # Exact by the cut bound alone: check that bound independently.
            flows = build_tables(net).flows
            cut_union = {e.id for f in flows for e in f.min_cut.cut_edges}
            assert certified_cut_union_bound(net, cut_union) == report.optimum
        if report.truncated:
            truncated += 1
            continue
        usable += 1
        assert report.gap >= 0
        assert report.heuristic_value <= report.optimum <= report.individual_total
        if report.gap == 0:
            zero_gap += 1
        else:
            target = tmp_path / f"gap_{position:03d}.net"
            target.write_text(render_network(net), encoding="utf-8")
            archived.append(target.name)
    assert usable > 0
    assert truncated == 0
    # The checked-in counterexamples are read-only fixtures: each must be
    # found again, byte for byte.
    for known in sorted(COUNTEREXAMPLES.glob("gap_*.net")):
        assert known.name in archived
        assert (tmp_path / known.name).read_bytes() == known.read_bytes()
    fraction = zero_gap / usable
    _report(
        5,
        "optimality gap",
        f" (gap 0 on {zero_gap}/{usable} solvable instances, fraction {fraction:.3f},"
        f" {truncated} truncated, counterexamples archived in {tmp_path}:"
        f" {archived or 'none'})",
    )


def _pipeline_summary(net):
    """What the pipeline makes of `net`, split in two: what must not change
    when every capacity is multiplied by the same factor (paths, cuts,
    color counts, shipment order, discards) and the integers that must be
    multiplied by it (flows, bottlenecks, cut capacities, shipped amounts,
    totals and both bounds), in a fixed order."""
    tables = build_tables(net)
    assignment = greedy_solve(tables)
    bounds = upper_bounds(tables)
    same: list = [tables.path_color_count, [p.label for p in assignment.discarded]]
    scaled: list[int] = []
    for flow in tables.flows:
        cut = flow.min_cut
        same += [list(flow.edge_flow), [(p.label, p.edges) for p in flow.paths]]
        same += [[e.id for e in cut.cut_edges], cut.side, cut.side_is_source, cut.source_side]
        scaled += [flow.value, *flow.edge_flow.values(), *(p.bottleneck for p in flow.paths)]
        scaled.append(cut.capacity)
    same += [[(p.label, p.edges) for p, _ in assignment.shipments], list(assignment.edge_flow)]
    scaled += [amount for _, amount in assignment.shipments]
    scaled += [*assignment.edge_flow.values(), *assignment.per_commodity_value.values()]
    scaled += [assignment.total_value, bounds.individual_total, bounds.inclusion_exclusion]
    return same, scaled


def _scale_capacities(net, factor):
    edges = tuple(Edge(e.id, e.tail, e.head, factor * e.capacity) for e in net.edges)
    return Network(net.nodes, edges, net.commodities)


@pytest.mark.parametrize("corpus", ["criterion_5", "large_solve"])
def test_capacity_scaling_is_metamorphic(corpus):
    # Scaling every capacity by c scales every residual by c, so each search
    # sees the same arcs and every choice the pipeline makes is the same.
    if corpus == "criterion_5":
        nets = _multicommodity_corpus()
    else:
        nets = [regular_network(random.Random(seed), 600, 4, 16) for seed in (1, 2, 3)]
    routed = 0
    for net in nets:
        same, scaled = _pipeline_summary(net)
        routed += any(scaled)
        for factor in (2, 7):
            assert _pipeline_summary(_scale_capacities(net, factor)) == (
                same,
                [factor * value for value in scaled],
            )
    assert routed > len(nets) * 3 // 4


def test_criterion_6_bound_arithmetic():
    def cut_of(edges):
        return Cut(
            nodes=("s", "u", "v"),
            side=("s",),
            side_is_source=True,
            cut_edges=tuple(edges),
            capacity=sum(e.capacity for e in edges),
        )

    def term_sum(cuts):
        return checked_term_sum(cuts, intersection_terms(cuts))

    rng = random.Random(SEED)
    for _ in range(100):
        pool = [Edge(eid, "u", "v", rng.randint(0, 10)) for eid in range(10)]
        cuts = []
        sets = []
        for _ in range(rng.randint(1, 4)):
            chosen = sorted(rng.sample(pool, rng.randint(1, len(pool))), key=lambda e: e.id)
            cuts.append(cut_of(chosen))
            sets.append({e.id for e in chosen})
        caps = {e.id: e.capacity for e in pool}
        assert term_sum(cuts) == direct_inclusion_exclusion(sets, caps)

    disjoint = [cut_of([Edge(0, "u", "v", 4)]), cut_of([Edge(1, "u", "v", 6)])]
    assert term_sum(disjoint) == 10
    shared = Edge(0, "u", "v", 7)
    identical = [cut_of([shared]), cut_of([shared])]
    assert term_sum(identical) == 7

    for _ in range(20):
        net = random_network(rng, max_nodes=10, max_edges=30, max_cap=9, commodity_range=(2, 10))
        tables = build_tables(net)
        cuts = [f.min_cut for f in tables.flows]
        sets = [{e.id for e in cut.cut_edges} for cut in cuts]
        caps = {e.id: e.capacity for e in net.edges}
        bound = term_sum(cuts)
        assert bound == direct_inclusion_exclusion(sets, caps)
        assert bound == upper_bounds(tables).inclusion_exclusion
    _report(6, "bound arithmetic", " (100 families + degenerate cases + 20 networks)")


def test_criterion_7_byte_identical_reruns():
    fixtures = [
        str(DATA / "two_commodity.net"),
        str(DATA / "disjoint.net"),
        str(DATA / "single_edge.net"),
        str(DATA / "bad_negative.net"),
    ]
    commands = []
    for fixture in fixtures:
        for fmt in ("human", "structured"):
            commands.append(["validate", fixture, "--format", fmt])
            commands.append(["maxflow", fixture, "--commodity", "1", "--format", fmt])
            commands.append(["tables", fixture, "--format", fmt])
            commands.append(["solve", fixture, "--format", fmt])
            commands.append(["bound", fixture, "--format", fmt])
            commands.append(["oracle", fixture, "--format", fmt])
            commands.append(["gap", fixture, "--format", fmt])
        commands.append(["export", fixture])
        commands.append(["export", fixture, "--assignment"])

    def capture(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        return code, out.getvalue(), err.getvalue()

    for argv in commands:
        assert capture(argv) == capture(argv), f"non-reproducible: {argv}"
    _report(7, "byte-identical reruns", f" ({len(commands)} invocations, run twice)")
