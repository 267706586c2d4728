"""Greedy selection, assignment validation, and capacity upper bounds."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    audit_tables,
    direct_inclusion_exclusion,
    full_scan_greedy,
    networks,
    random_network,
)
from mcflow import (
    Assignment,
    Cut,
    Edge,
    build_tables,
    greedy_solve,
    inclusion_exclusion_bound,
    parse_network,
    upper_bounds,
    validate_assignment,
)


class TestGreedySolve:
    def test_golden_run(self, golden_text):
        t = build_tables(parse_network(golden_text))
        a = greedy_solve(t)
        assert [(p.label, amount) for p, amount in a.shipments] == [
            ("P1.1", 5),
            ("P2.1", 10),
            ("P2.2", 10),
        ]
        assert [p.label for p in a.discarded] == ["P1.2"]
        assert a.per_commodity_value == {1: 5, 2: 20}
        assert a.total_value == 25

    def test_golden_edge_flow(self, golden_text):
        t = build_tables(parse_network(golden_text))
        a = greedy_solve(t)
        assert a.edge_flow == {
            (1, 0): 5,
            (2, 4): 10,
            (2, 1): 10,
            (2, 5): 10,
            (2, 6): 10,
            (2, 3): 10,
            (2, 7): 10,
        }

    def test_disjoint_ships_everything_in_order(self, disjoint_net):
        a = greedy_solve(build_tables(disjoint_net))
        assert [(p.label, amount) for p, amount in a.shipments] == [
            ("P1.1", 4),
            ("P2.1", 6),
        ]
        assert a.discarded == []
        assert a.total_value == 10

    def test_empty_tables_give_empty_assignment(self):
        net = parse_network("node s\nnode t\nedge s t 0\nedge t s 1\ncommodity s t\n")
        a = greedy_solve(build_tables(net))
        assert a.shipments == [] and a.total_value == 0
        assert a.per_commodity_value == {1: 0}

    def test_requires_fresh_tables(self, golden_text):
        t = build_tables(parse_network(golden_text))
        greedy_solve(t)
        with pytest.raises(ValueError, match="freshly built"):
            greedy_solve(t)

    def test_deterministic_across_runs(self, golden_text):
        runs = []
        for _ in range(2):
            a = greedy_solve(build_tables(parse_network(golden_text)))
            runs.append(
                (
                    [(p.label, amount) for p, amount in a.shipments],
                    [p.label for p in a.discarded],
                    a.total_value,
                )
            )
        assert runs[0] == runs[1]

    def test_seeded_corpus_respects_individual_flows(self):
        rng = random.Random(4242)
        for _ in range(60):
            net = random_network(rng, max_nodes=6, max_edges=10, commodity_range=(2, 3))
            t = build_tables(net)
            a = greedy_solve(t)
            for com in net.commodities:
                assert a.per_commodity_value[com.index] <= t.commodity_value[com.index]

    @settings(max_examples=50)
    @given(networks(max_nodes=6, max_edges=10, max_commodities=2))
    def test_greedy_output_always_validates(self, net):
        a = greedy_solve(build_tables(net))
        assert validate_assignment(net, a) == []


class TestGreedyMatchesFullScan:
    def test_seeded_corpus_up_to_twelve_commodities(self):
        rng = random.Random(3131)
        steps = 0
        sizes = set()

        def audit(tables):
            nonlocal steps
            steps += 1
            assert audit_tables(tables) == []

        for _ in range(80):
            net = random_network(
                rng,
                max_nodes=rng.randint(4, 14),
                max_edges=rng.randint(6, 40),
                max_cap=rng.randint(2, 12),
                commodity_range=(1, 12),
            )
            sizes.add(len(net.commodities))
            want = full_scan_greedy(build_tables(net), after_step=audit)
            tables = build_tables(net)
            got = greedy_solve(tables)
            paths = tables.paths
            assert got.shipments == [(paths[p], amount) for p, amount in want[0]]
            assert got.discarded == [paths[p] for p in want[1]]
            assert got.edge_flow == want[2]
            assert audit_tables(tables) == []
        assert steps > 300
        assert 12 in sizes

    def test_golden_matches_full_scan(self, golden_text):
        net = parse_network(golden_text)
        shipments, discarded, edge_flow = full_scan_greedy(build_tables(net))
        assert shipments == [(0, 5), (2, 10), (3, 10)]
        assert discarded == [1]
        tables = build_tables(net)
        got = greedy_solve(tables)
        assert got.shipments == [(tables.paths[p], amount) for p, amount in shipments]
        assert got.discarded == [tables.paths[p] for p in discarded]
        assert got.edge_flow == edge_flow


class TestValidateAssignment:
    def test_golden_greedy_is_clean(self, golden_text):
        net = parse_network(golden_text)
        assert validate_assignment(net, greedy_solve(build_tables(net))) == []

    def test_overcapacity_detected(self, golden_net):
        a = Assignment([], [], {(1, 0): 6}, {1: 6, 2: 0}, 6)
        msgs = validate_assignment(golden_net, a)
        assert any("exceeds capacity" in m for m in msgs)

    def test_shared_edge_overuse_detected(self, golden_net):
        # Each commodity alone fits on edge 3, together they burst it.
        flows = {
            (1, 1): 8, (1, 2): 8, (1, 3): 8,
            (2, 6): 8, (2, 3): 8, (2, 7): 8,
        }
        a = Assignment([], [], flows, {1: 8, 2: 8}, 16)
        msgs = validate_assignment(golden_net, a)
        assert any("edge 3" in m and "exceeds capacity" in m for m in msgs)

    def test_conservation_break_detected(self, golden_net):
        a = Assignment([], [], {(1, 1): 5}, {1: 5, 2: 0}, 5)
        msgs = validate_assignment(golden_net, a)
        assert any("node a" in m and "inflow" in m for m in msgs)

    def test_declared_value_mismatch_detected(self, golden_net):
        a = Assignment([], [], {(1, 0): 5}, {1: 4, 2: 0}, 4)
        msgs = validate_assignment(golden_net, a)
        assert any("declared value" in m for m in msgs)

    def test_negative_flow_detected(self, golden_net):
        a = Assignment([], [], {(1, 0): -1}, {1: -1, 2: 0}, -1)
        msgs = validate_assignment(golden_net, a)
        assert any("negative flow" in m for m in msgs)

    def test_total_mismatches_detected(self, golden_net):
        a = Assignment([], [], {(1, 0): 5}, {1: 5, 2: 0}, 9)
        msgs = validate_assignment(golden_net, a)
        assert any("shipment sum" in m for m in msgs)
        assert any("per-commodity sum" in m for m in msgs)

    def test_unknown_commodity_raises(self, golden_net):
        a = Assignment([], [], {(9, 0): 1}, {}, 1)
        with pytest.raises(ValueError, match="unknown commodity"):
            validate_assignment(golden_net, a)

    def test_unknown_edge_raises(self, golden_net):
        a = Assignment([], [], {(1, 99): 1}, {}, 1)
        with pytest.raises(ValueError, match="unknown edge"):
            validate_assignment(golden_net, a)


def _cut(edges):
    return Cut(
        source_side=frozenset({"s"}),
        cut_edges=tuple(edges),
        capacity=sum(e.capacity for e in edges),
    )


class TestInclusionExclusionBound:
    def test_golden_terms(self, golden_text):
        t = build_tables(parse_network(golden_text))
        report = inclusion_exclusion_bound([t.cuts[1], t.cuts[2]])
        assert report.individual_cut_sums == {1: 15, 2: 20}
        assert report.intersection_terms == {(1,): 15, (2,): 20, (1, 2): 0}
        assert report.bound == 35

    def test_disjoint_cuts_add_up(self):
        e0 = Edge(0, "s", "a", 4)
        e1 = Edge(1, "b", "t", 6)
        report = inclusion_exclusion_bound([_cut([e0]), _cut([e1])])
        assert report.bound == 10

    def test_identical_cuts_count_once(self):
        shared = Edge(0, "s", "t", 7)
        report = inclusion_exclusion_bound([_cut([shared]), _cut([shared])])
        assert report.bound == 7
        assert report.intersection_terms[(1, 2)] == 7

    def test_three_way_overlap(self):
        a = Edge(0, "s", "x", 3)
        b = Edge(1, "s", "y", 5)
        c = Edge(2, "s", "z", 7)
        cuts = [_cut([a, b]), _cut([b, c]), _cut([a, b, c])]
        report = inclusion_exclusion_bound(cuts)
        sets = [{0, 1}, {1, 2}, {0, 1, 2}]
        caps = {0: 3, 1: 5, 2: 7}
        assert report.bound == direct_inclusion_exclusion(sets, caps)
        # alternating sum collapses to the capacity of the union
        assert report.bound == 3 + 5 + 7

    def test_random_families_match_direct_evaluation(self):
        rng = random.Random(99)
        for _ in range(100):
            pool = [Edge(eid, "u", "v", rng.randint(0, 9)) for eid in range(8)]
            cuts = []
            sets = []
            for _ in range(rng.randint(1, 4)):
                chosen = rng.sample(pool, rng.randint(1, len(pool)))
                chosen.sort(key=lambda e: e.id)
                cuts.append(_cut(chosen))
                sets.append({e.id for e in chosen})
            caps = {e.id: e.capacity for e in pool}
            report = inclusion_exclusion_bound(cuts)
            assert report.bound == direct_inclusion_exclusion(sets, caps)
            union = set().union(*sets)
            assert report.bound == sum(caps[eid] for eid in union)

    @settings(max_examples=40)
    @given(st.data())
    def test_bound_equals_union_capacity(self, data):
        caps = data.draw(st.lists(st.integers(0, 20), min_size=1, max_size=6))
        pool = [Edge(eid, "u", "v", cap) for eid, cap in enumerate(caps)]
        k = data.draw(st.integers(1, 3))
        choices = [
            data.draw(
                st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True)
            )
            for _ in range(k)
        ]
        report = inclusion_exclusion_bound([_cut(c) for c in choices])
        union_ids = {e.id for c in choices for e in c}
        assert report.bound == sum(caps[eid] for eid in union_ids)


class TestUpperBounds:
    def test_golden_values(self, golden_text):
        net = parse_network(golden_text)
        t = build_tables(net)
        bounds = upper_bounds(t)
        assert bounds.individual_total == 35
        assert bounds.inclusion_exclusion == 35

    def test_disjoint_bounds_equal_sum(self, disjoint_net):
        t = build_tables(disjoint_net)
        bounds = upper_bounds(t)
        assert bounds.individual_total == 10
        assert bounds.inclusion_exclusion == 10

    def test_seeded_corpus_bounds_dominate_greedy(self):
        rng = random.Random(515)
        for _ in range(60):
            net = random_network(rng, max_nodes=6, max_edges=10, commodity_range=(2, 3))
            t = build_tables(net)
            bounds = upper_bounds(t)
            total = greedy_solve(t).total_value
            assert total <= bounds.individual_total
            assert total <= bounds.inclusion_exclusion
            assert bounds.inclusion_exclusion <= bounds.individual_total

    def test_union_capacity_matches_subset_sum_up_to_ten_commodities(self):
        rng = random.Random(1010)
        sizes = set()
        for _ in range(60):
            net = random_network(
                rng, max_nodes=10, max_edges=30, max_cap=9, commodity_range=(1, 10)
            )
            t = build_tables(net)
            ordered = [t.cuts[com.index] for com in net.commodities]
            bound = inclusion_exclusion_bound(ordered).bound
            assert upper_bounds(t).inclusion_exclusion == bound
            sizes.add(len(net.commodities))
        assert 10 in sizes
