"""Greedy selection, assignment validation, and capacity upper bounds."""

import copy
import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CountingDict,
    CountingTuple,
    checked_term_sum,
    corrupt_assignment,
    direct_inclusion_exclusion,
    full_scan_greedy,
    misreference_assignment,
    multicommodity_networks,
    networks,
    random_network,
    reference_validate_assignment,
    regular_network,
)
from mcflow import (
    Assignment,
    Cut,
    Edge,
    Network,
    build_tables,
    greedy_solve,
    intersection_terms,
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

    def test_twice_on_same_tables(self, golden_text):
        t = build_tables(parse_network(golden_text))
        before = copy.deepcopy(t)
        assert greedy_solve(t) == greedy_solve(t)
        assert t == before
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.paths = ()

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
            for com, flow in zip(net.commodities, t.flows):
                assert a.per_commodity_value[com.index] <= flow.value

    @settings(max_examples=50)
    @given(networks(max_nodes=6, max_edges=10, max_commodities=2))
    def test_greedy_output_always_validates(self, net):
        a = greedy_solve(build_tables(net))
        assert validate_assignment(net, a) == []


class TestGreedyMatchesFullScan:
    @staticmethod
    def assert_matches(net):
        """greedy_solve agrees with the full-scan reference on `net`;
        returns the number of shipments."""
        tables = build_tables(net)
        shipments, discarded, edge_flow = full_scan_greedy(net, tables.paths)
        got = greedy_solve(tables)
        paths = tables.paths
        assert got.shipments == [(paths[p], amount) for p, amount in shipments]
        assert got.discarded == [paths[p] for p in discarded]
        assert got.edge_flow == edge_flow
        return len(shipments)

    def test_seeded_corpus_up_to_twelve_commodities(self):
        rng = random.Random(3131)
        steps = 0
        sizes = set()
        for _ in range(80):
            net = random_network(
                rng,
                max_nodes=rng.randint(4, 14),
                max_edges=rng.randint(6, 40),
                max_cap=rng.randint(2, 12),
                commodity_range=(1, 12),
            )
            sizes.add(len(net.commodities))
            steps += self.assert_matches(net)
        # Denser networks, where whether a shipped path keeps its color
        # changes the order of later shipments.
        for net in multicommodity_networks(random.Random(3132), 40, min_commodities=2):
            steps += self.assert_matches(net)
        assert steps > 300
        assert 12 in sizes

    def test_golden_matches_full_scan(self, golden_text):
        net = parse_network(golden_text)
        shipments, discarded, edge_flow = full_scan_greedy(net, build_tables(net).paths)
        assert shipments == [(0, 5), (2, 10), (3, 10)]
        assert discarded == [1]
        self.assert_matches(net)

    @pytest.mark.parametrize(
        "seed, nodes, commodities", [(0, 300, 18), (1, 300, 18), (0, 600, 16)]
    )
    def test_benchmark_scale(self, seed, nodes, commodities):
        # At this size shipments often discard several paths at once, and
        # an active path can lose the colors of two of them in one step.
        net = regular_network(random.Random(seed), nodes, 4, commodities)
        assert self.assert_matches(net) > 100


def _with_idle_ring(core, size=3000):
    """`core` plus a ring of `size` new nodes and edges that no commodity can use."""
    names = tuple(f"z{i}" for i in range(size))
    ring = tuple(
        Edge(len(core.edges) + i, names[i], names[(i + 1) % size], 3) for i in range(size)
    )
    return Network(core.nodes + names, core.edges + ring, core.commodities)


class TestGreedyReadBound:
    """greedy_solve reads the per-edge path lists only on the edges of the
    paths it ships or discards, however many edges no path uses."""

    def test_unused_edges_are_not_read(self):
        net = _with_idle_ring(regular_network(random.Random(5), 20, 3, 8))
        tables = build_tables(net)
        counting = CountingDict(tables.edge_paths)
        got = greedy_solve(dataclasses.replace(tables, edge_paths=counting))
        assert got == greedy_solve(tables)
        assert got.discarded
        touched = sum(len(p.edges) for p, _ in got.shipments)
        touched += sum(len(p.edges) for p in got.discarded)
        assert counting.reads <= touched < len(net.edges) / 8


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


class TestValidateAssignmentMatchesReference:
    """validate_assignment visits only the (commodity, node) pairs the flow
    touches; the reference visits every pair.  Their message lists must be
    equal, order included."""

    def test_seeded_corrupted_assignments(self):
        rng = random.Random(1313)
        cases = with_violations = several_commodities = 0
        for net in multicommodity_networks(rng, 260):
            clean = greedy_solve(build_tables(net))
            assert validate_assignment(net, clean) == reference_validate_assignment(net, clean) == []
            for _ in range(20):
                a = corrupt_assignment(net, clean, rng)
                expected = reference_validate_assignment(net, a)
                assert validate_assignment(net, a) == expected
                cases += 1
                with_violations += bool(expected)
                named = {m.split(",")[0].split(":")[0] for m in expected if m.startswith("commodity")}
                several_commodities += len(named) >= 2
        assert cases >= 5000
        assert with_violations > cases // 2
        assert several_commodities >= 500

    @staticmethod
    def outcome(check, net, assignment):
        """The messages a checker returns, or the ValueError it raises."""
        try:
            return check(net, assignment)
        except ValueError as error:
            return ("ValueError", str(error))

    def test_seeded_bad_references(self):
        # The reference checks every reference before anything else;
        # validate_assignment checks each in its one pass, so it must raise
        # at the same first bad entry, commodity before edge.
        rng = random.Random(2626)
        outcomes = {"commodity": 0, "edge": 0, "messages": 0}
        for net in multicommodity_networks(rng, 120):
            clean = greedy_solve(build_tables(net))
            for _ in range(20):
                a = misreference_assignment(net, corrupt_assignment(net, clean, rng), rng)
                expected = self.outcome(reference_validate_assignment, net, a)
                assert self.outcome(validate_assignment, net, a) == expected
                if isinstance(expected, tuple):
                    outcomes["commodity" if "commodity" in expected[1] else "edge"] += 1
                else:
                    outcomes["messages"] += 1
        assert min(outcomes.values()) >= 400, outcomes


class TestValidateAssignmentReadBound:
    """validate_assignment reads only the edges the flow touches, however
    many edges carry nothing: it costs O(K + flow entries), not O(E)."""

    def test_idle_edges_are_not_read(self):
        net = _with_idle_ring(regular_network(random.Random(7), 20, 3, 8))
        clean = greedy_solve(build_tables(net))
        broken = dataclasses.replace(clean, total_value=clean.total_value + 1)
        expected = reference_validate_assignment(net, broken)
        assert len(expected) == 2
        touched = {eid for _, eid in clean.edge_flow}
        assert 0 < len(touched) <= len(clean.edge_flow) < len(net.edges) / 20
        edges, nodes = CountingTuple(net.edges), CountingTuple(net.nodes)
        object.__setattr__(net, "edges", edges)
        object.__setattr__(net, "nodes", nodes)
        for assignment, messages in ((clean, []), (broken, expected)):
            edges.reads = nodes.reads = 0
            assert validate_assignment(net, assignment) == messages
            # Each entry's edge, then each touched edge's capacity, once.
            assert (edges.reads, nodes.reads) == (len(clean.edge_flow) + len(touched), 0)


def _cut(edges):
    return Cut(
        nodes=("s", "t"),
        side=("s",),
        side_is_source=True,
        cut_edges=tuple(edges),
        capacity=sum(e.capacity for e in edges),
    )


def _term_sum(cuts):
    return checked_term_sum(cuts, intersection_terms(cuts))


class TestInclusionExclusionBound:
    def test_golden_terms(self, golden_text):
        t = build_tables(parse_network(golden_text))
        cuts = [f.min_cut for f in t.flows]
        assert [cut.capacity for cut in cuts] == [15, 20]
        assert list(intersection_terms(cuts)) == [((1, 2), 0)]
        assert _term_sum(cuts) == 35 == upper_bounds(t).inclusion_exclusion

    def test_disjoint_cuts_add_up(self):
        e0 = Edge(0, "s", "a", 4)
        e1 = Edge(1, "b", "t", 6)
        cuts = [_cut([e0]), _cut([e1])]
        assert list(intersection_terms(cuts)) == [((1, 2), 0)]
        assert _term_sum(cuts) == 10 == direct_inclusion_exclusion([{0}, {1}], {0: 4, 1: 6})

    def test_identical_cuts_count_once(self):
        shared = Edge(0, "s", "t", 7)
        cuts = [_cut([shared]), _cut([shared])]
        assert list(intersection_terms(cuts)) == [((1, 2), 7)]
        assert _term_sum(cuts) == 7 == direct_inclusion_exclusion([{0}, {0}], {0: 7})

    def test_three_way_overlap(self):
        a = Edge(0, "s", "x", 3)
        b = Edge(1, "s", "y", 5)
        c = Edge(2, "s", "z", 7)
        cuts = [_cut([a, b]), _cut([b, c]), _cut([a, b, c])]
        assert list(intersection_terms(cuts)) == [
            ((1, 2), 5), ((1, 3), 8), ((2, 3), 12), ((1, 2, 3), 5)
        ]
        sets = [{0, 1}, {1, 2}, {0, 1, 2}]
        caps = {0: 3, 1: 5, 2: 7}
        assert _term_sum(cuts) == direct_inclusion_exclusion(sets, caps)
        # alternating sum collapses to the capacity of the union
        assert _term_sum(cuts) == 3 + 5 + 7

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
            bound = _term_sum(cuts)
            assert bound == direct_inclusion_exclusion(sets, caps)
            union = set().union(*sets)
            assert bound == sum(caps[eid] for eid in union)

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
        cuts = [_cut(c) for c in choices]
        sets = [{e.id for e in c} for c in choices]
        union_ids = set().union(*sets)
        bound = _term_sum(cuts)
        assert bound == direct_inclusion_exclusion(sets, dict(enumerate(caps)))
        assert bound == sum(caps[eid] for eid in union_ids)

    def test_terms_stream_one_at_a_time(self):
        # 2^40 subsets could never all be held: the first terms come at once.
        shared = Edge(0, "s", "t", 7)
        cuts = [_cut([shared])] * 20 + [_cut([Edge(eid, "s", "t", 1)]) for eid in range(1, 21)]
        terms = intersection_terms(cuts)
        assert next(terms) == ((1, 2), 7)
        assert next(terms) == ((1, 3), 7)
        assert (next(terms), next(terms)) == (((1, 4), 7), ((1, 5), 7))


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
            ordered = [f.min_cut for f in t.flows]
            sets = [{e.id for e in cut.cut_edges} for cut in ordered]
            caps = {e.id: e.capacity for e in net.edges}
            bound = _term_sum(ordered)
            assert bound == direct_inclusion_exclusion(sets, caps)
            assert upper_bounds(t).inclusion_exclusion == bound
            sizes.add(len(net.commodities))
        assert 10 in sizes
