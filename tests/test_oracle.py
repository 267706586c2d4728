"""The exact LP branch and bound against the brute-force reference, its
witness and budget, the reference's own path listing, and the
heuristic-versus-optimum report."""

import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

import mcflow.oracle
from helpers import (
    ReferenceLimitError,
    certified_cut_union_bound,
    exhaustive_best,
    networks,
    random_network,
    reference_enumerate_paths,
    reference_optimal_value,
    regular_network,
)
from mcflow import (
    build_tables,
    greedy_solve,
    max_flow,
    optimal_value,
    parse_network,
    upper_bounds,
    validate_assignment,
)

COUNTEREXAMPLES = Path(__file__).parent / "counterexamples"


class TestEnumeratePaths:
    """The reference's path listing, which the brute-force optimum searches."""

    def test_golden_commodity_1(self, golden_net):
        paths = reference_enumerate_paths(golden_net, golden_net.commodity(1))
        assert [(p.edges, p.bottleneck) for p in paths] == [
            ((0,), 5),
            ((1, 2, 3), 10),
        ]

    def test_golden_commodity_2_has_four_paths(self, golden_net):
        paths = reference_enumerate_paths(golden_net, golden_net.commodity(2))
        assert [(p.edges, p.bottleneck) for p in paths] == [
            ((4, 0, 7), 5),
            ((4, 1, 2, 3, 7), 10),
            ((4, 1, 5), 10),
            ((6, 3, 7), 10),
        ]

    def test_limit_enforced(self, golden_net):
        with pytest.raises(ReferenceLimitError, match="more than 2"):
            reference_enumerate_paths(golden_net, golden_net.commodity(2), limit=2)

    def test_no_route_gives_empty_list(self):
        net = parse_network("node s\nnode t\nedge t s 3\ncommodity s t\n")
        assert reference_enumerate_paths(net, net.commodity(1)) == []

    def test_zero_capacity_path_is_still_listed(self):
        net = parse_network("node s\nnode t\nedge s t 0\ncommodity s t\n")
        paths = reference_enumerate_paths(net, net.commodity(1))
        assert [(p.edges, p.bottleneck) for p in paths] == [((0,), 0)]

    @settings(max_examples=40)
    @given(networks(max_nodes=5, max_edges=8, max_commodities=1))
    def test_paths_are_simple_and_sorted_by_discovery(self, net):
        com = net.commodities[0]
        paths = reference_enumerate_paths(net, com, limit=200)
        seen = set()
        for p in paths:
            assert p.commodity == com.index
            assert p.edges not in seen
            seen.add(p.edges)
            nodes = [com.source]
            for eid in p.edges:
                edge = net.edges[eid]
                assert edge.tail == nodes[-1]
                nodes.append(edge.head)
            assert nodes[-1] == com.sink
            assert len(set(nodes)) == len(nodes)
            assert p.bottleneck == min(net.edges[eid].capacity for eid in p.edges)


def assert_witness_proves(net, result):
    """The witness is a feasible flow whose value is the reported optimum."""
    assert validate_assignment(net, result.witness) == []
    assert result.witness.total_value == result.optimum


class TestOptimalValue:
    def test_golden_optimum_and_witness(self, golden_net):
        # Nothing beats greedy's 25, so greedy's shipments are the witness.
        result = optimal_value(golden_net)
        assert result.optimum == 25
        assert not result.truncated
        assert result.explored > 0
        assert result.witness == greedy_solve(build_tables(golden_net))
        assert [(p.label, amount) for p, amount in result.witness.shipments] == [
            ("P1.1", 5),
            ("P2.1", 10),
            ("P2.2", 10),
        ]

    def test_golden_witness_is_feasible(self, golden_net):
        assert_witness_proves(golden_net, optimal_value(golden_net))

    def test_optimum_invariant_under_edge_reordering(self, golden_text):
        lines = golden_text.splitlines()
        edges = [ln for ln in lines if ln.startswith("edge")]
        rest_head = [ln for ln in lines if ln.startswith("node")]
        rest_tail = [ln for ln in lines if ln.startswith("commodity")]
        rng = random.Random(3)
        for _ in range(5):
            rng.shuffle(edges)
            permuted = "\n".join(rest_head + edges + rest_tail) + "\n"
            assert optimal_value(parse_network(permuted)).optimum == 25

    def test_witness_is_peeled_from_the_lp_flow(self):
        # Criterion 5's instance #083: greedy ships 22 and the optimum is 24,
        # so the witness is the search's integral flow, peeled into paths.
        net = parse_network((COUNTEREXAMPLES / "gap_083.net").read_text())
        result = optimal_value(net)
        assert (result.optimum, result.truncated) == (24, False)
        assert greedy_solve(build_tables(net)).total_value == 22
        assert_witness_proves(net, result)
        assert result.witness.discarded == []
        for path, amount in result.witness.shipments:
            assert amount == path.bottleneck > 0
            nodes = [net.edges[path.edges[0]].tail] + [net.edges[e].head for e in path.edges]
            com = net.commodity(path.commodity)
            assert (nodes[0], nodes[-1]) == (com.source, com.sink)
            assert len(set(nodes)) == len(nodes)

    def test_single_commodity_matches_max_flow(self):
        rng = random.Random(808)
        for _ in range(40):
            net = random_network(rng, max_nodes=5, max_edges=8, max_cap=6)
            com = net.commodities[0]
            result = optimal_value(net)
            assert not result.truncated
            assert result.optimum == max_flow(net, com).value

    def test_matches_brute_force_product_enumeration(self):
        rng = random.Random(909)
        checked = 0
        while checked < 25:
            net = random_network(rng, max_nodes=4, max_edges=6, max_cap=3, commodity_range=(1, 2))
            catalog = [
                p for com in net.commodities for p in reference_enumerate_paths(net, com, limit=50)
            ]
            combos = 1
            for p in catalog:
                combos *= p.bottleneck + 1
            if combos > 100_000:
                continue
            result = optimal_value(net)
            assert not result.truncated
            assert result.optimum == exhaustive_best(net, catalog)
            checked += 1

    def test_no_route_gives_zero(self):
        net = parse_network("node s\nnode t\nedge t s 3\ncommodity s t\n")
        result = optimal_value(net)
        assert result.optimum == 0
        assert result.witness.shipments == []
        assert (result.explored, result.truncated) == (0, False)

    def test_candidate_budget_truncates(self, golden_net):
        # One pivot cannot finish the root LP; greedy's total is the lower bound.
        result = optimal_value(golden_net, max_candidates=1)
        assert result.truncated
        assert result.explored == 1
        assert result.optimum == 25
        assert_witness_proves(golden_net, result)

    def test_truncated_optimum_is_still_a_lower_bound(self):
        net = parse_network((COUNTEREXAMPLES / "gap_083.net").read_text())
        for budget in (0, 1, 10):
            result = optimal_value(net, max_candidates=budget)
            assert result.truncated
            assert result.explored == budget
            assert 22 <= result.optimum <= 24
            assert_witness_proves(net, result)

    def test_restricted_catalog_bounds_greedy_from_above(self):
        rng = random.Random(606)
        for _ in range(30):
            net = random_network(rng, max_nodes=5, max_edges=8, max_cap=6, commodity_range=(2, 2))
            tables = build_tables(net)
            total = greedy_solve(tables).total_value
            catalog = capacity_catalog(net, tables.paths)
            restricted = reference_optimal_value(net, catalog=catalog)
            assert not restricted.truncated
            assert restricted.optimum >= total
            result = optimal_value(net)
            assert not result.truncated
            assert result.optimum >= restricted.optimum

    def test_deterministic_across_runs(self, golden_net):
        assert optimal_value(golden_net) == optimal_value(golden_net)


def _corpus():
    """Small networks the brute force settles, from both generators."""
    rng = random.Random(5505)
    for i in range(240):
        if i % 2:
            yield regular_network(rng, rng.randint(4, 5), 2, rng.randint(2, 3), max_cap=3)
        else:
            yield random_network(rng, max_nodes=6, max_edges=10, max_cap=5, commodity_range=(2, 3))


class TestMatchesReference:
    """optimal_value's optimum must be the brute-force reference's wherever
    that settles, and a budget short of the search's pivots truncates."""

    def test_seeded_corpus_at_every_budget(self):
        searched = improved = 0
        for net in _corpus():
            reference = reference_optimal_value(net, max_candidates=200_000)
            assert not reference.truncated
            exact = optimal_value(net)
            assert not exact.truncated
            assert exact.optimum == reference.optimum
            assert_witness_proves(net, exact)
            searched += exact.explored > 0
            improved += exact.optimum > greedy_solve(build_tables(net)).total_value
            for budget in {0, 1, exact.explored // 2, exact.explored - 1}:
                if 0 <= budget < exact.explored:
                    result = optimal_value(net, max_candidates=budget)
                    assert result.truncated and result.explored == budget
                    assert result.optimum <= exact.optimum
                    assert_witness_proves(net, result)
        assert searched >= 50
        assert improved >= 5

    def test_seeded_corpus_at_exactly_the_full_budget(self):
        # The budget bounds the pivots of the whole search, so exactly the
        # full count settles it, with the same result.
        for net in _corpus():
            exact = optimal_value(net)
            assert optimal_value(net, max_candidates=exact.explored) == exact


class TestFractionalVertices:
    """Networks whose root LP vertex is fractional.  Each test pins dual
    lengths y >= 0 on the edges under which every path of every commodity
    has length >= 1: then every joint flow is at most sum(c_e * y_e), which
    is the root LP's value (weak duality)."""

    @staticmethod
    def _root_lps(monkeypatch):
        values = []
        simplex = mcflow.oracle._simplex

        def recording(*args):
            solved = simplex(*args)
            values.append(None if solved is None else solved[0])
            return solved

        monkeypatch.setattr(mcflow.oracle, "_simplex", recording)
        return values

    @staticmethod
    def _certified_bound(net, y):
        for com in net.commodities:
            for path in reference_enumerate_paths(net, com, limit=1000):
                assert sum(y.get(e, 0) for e in path.edges) >= 1, path
        return sum(net.edges[e].capacity * length for e, length in y.items())

    def test_directed_three_cycle(self, monkeypatch):
        # Each commodity has one two-hop route, and each edge lies on two of
        # them: the LP sends 1/2 on each, but an integral flow ships 1.
        net = parse_network(
            "node a\nnode b\nnode c\n"
            "edge a b 1\nedge b c 1\nedge c a 1\n"
            "commodity a c\ncommodity b a\ncommodity c b\n"
        )
        lps = self._root_lps(monkeypatch)
        result = optimal_value(net)
        assert lps == [Fraction(3, 2)]
        half = Fraction(1, 2)
        assert self._certified_bound(net, {0: half, 1: half, 2: half}) == lps[0]
        assert (result.optimum, result.truncated) == (1, False)
        assert result.witness == greedy_solve(build_tables(net))
        assert reference_optimal_value(net).optimum == 1

    def test_branching_on_a_seeded_mix_network(self, monkeypatch):
        # From a seeded mix of small networks: unit capacities, greedy ships
        # 5 of a cut-union bound of 9.  The root LP is 13/2, so no integral
        # flow exceeds 6, and the up branch on the first fractional variable
        # finds an integral 6.  By hand: the witness's 13 edges are distinct,
        # and under y every path of each commodity leaves its source or
        # enters its sink through lengths summing to at least 1.
        net = parse_network(
            "node v0\nnode v1\nnode v2\nnode v3\nnode v4\nnode v5\n"
            "edge v0 v3 1\nedge v0 v1 1\nedge v0 v5 1\nedge v1 v2 1\nedge v1 v5 1\n"
            "edge v1 v4 1\nedge v2 v0 1\nedge v2 v4 1\nedge v2 v5 1\nedge v3 v0 1\n"
            "edge v3 v2 1\nedge v3 v1 1\nedge v4 v3 1\nedge v4 v2 1\nedge v4 v3 1\n"
            "edge v5 v4 1\nedge v5 v1 1\nedge v5 v0 1\n"
            "commodity v4 v0\ncommodity v0 v2\ncommodity v2 v5\n"
        )
        half = Fraction(1, 2)
        y = {0: half, 1: half, 2: half, 3: half, 4: 1, 6: half, 8: 1, 9: 1, 10: half, 13: half}
        lps = self._root_lps(monkeypatch)
        result = optimal_value(net)
        assert greedy_solve(build_tables(net)).total_value == 5
        assert lps == [Fraction(13, 2), 6]
        assert self._certified_bound(net, y) == lps[0]
        assert (result.optimum, result.truncated) == (6, False)
        assert_witness_proves(net, result)
        assert reference_optimal_value(net).optimum == 6


def capacity_catalog(net, paths):
    """The same paths, each with its bottleneck set to its smallest capacity."""
    return tuple(
        dataclasses.replace(p, bottleneck=min(net.edges[e].capacity for e in p.edges))
        for p in paths
    )


class TestGapReport:
    """What `mcflow gap` prints, read off the one exact result: greedy's
    total, the optimum, both upper bounds and their difference."""

    def test_golden_report(self, golden_net):
        result = optimal_value(golden_net)
        assert result.greedy.total_value == 25
        assert result.optimum == 25
        assert result.optimum - result.greedy.total_value == 0
        assert result.bounds.individual_total == 35
        assert result.bounds.inclusion_exclusion == 35
        assert not result.truncated

    def test_disjoint_report(self, disjoint_net):
        result = optimal_value(disjoint_net)
        assert result.greedy.total_value == result.optimum == 10
        assert result.optimum - result.greedy.total_value == 0

    def test_seeded_corpus_gap_nonnegative_and_bounded(self):
        rng = random.Random(13579)
        for _ in range(30):
            net = random_network(rng, max_nodes=5, max_edges=8, max_cap=5, commodity_range=(2, 2))
            result = optimal_value(net, max_candidates=500_000)
            assert not result.truncated
            assert result.optimum - result.greedy.total_value >= 0
            assert result.greedy.total_value <= result.optimum
            assert result.optimum <= result.bounds.inclusion_exclusion
            assert result.optimum <= result.bounds.individual_total

    def test_cut_bound_short_circuit_matches_reference(self, monkeypatch):
        # Greedy reaching the cut-union bound is reported as the optimum
        # without an LP; the reference search must agree wherever it
        # finishes, and the bound must pass the independent certificate.
        lps = []
        simplex = mcflow.oracle._simplex

        def counting(*args):
            lps.append(args)
            return simplex(*args)

        monkeypatch.setattr(mcflow.oracle, "_simplex", counting)
        rng = random.Random(2024)
        short_circuited = searched = finished = 0
        for _ in range(300):
            net = random_network(
                rng, max_nodes=6, max_edges=10, max_cap=9, commodity_range=(2, 3)
            )
            tables = build_tables(net)
            bound = upper_bounds(tables).inclusion_exclusion
            greedy = greedy_solve(tables).total_value
            before = len(lps)
            result = optimal_value(net)
            assert not result.truncated
            assert result.greedy.total_value == greedy
            assert result.greedy == greedy_solve(build_tables(net))
            assert result.bounds.inclusion_exclusion == bound
            if greedy == bound:
                short_circuited += 1
                assert len(lps) == before
                assert result.witness is result.greedy
                assert result.optimum == greedy
                assert result.optimum - result.greedy.total_value == 0
                cut_union = {e.id for f in tables.flows for e in f.min_cut.cut_edges}
                assert certified_cut_union_bound(net, cut_union) == bound
            else:
                searched += 1
                assert len(lps) > before
            reference = reference_optimal_value(net, max_candidates=20_000)
            if not reference.truncated:
                finished += 1
                assert result.optimum == reference.optimum
        assert short_circuited >= 100
        assert searched >= 10
        assert finished >= 250

    def test_certificate_needs_every_commodity_separated(self, golden_net):
        cuts = [f.min_cut for f in build_tables(golden_net).flows]
        union = {e.id for cut in cuts for e in cut.cut_edges}
        assert certified_cut_union_bound(golden_net, union) == 35
        for cut in cuts:
            # One commodity's cut alone leaves the other commodity connected.
            assert certified_cut_union_bound(golden_net, {e.id for e in cut.cut_edges}) is None
        assert certified_cut_union_bound(golden_net, ()) is None

    def test_criterion_5_110_is_exact_at_budget_1000(self):
        # Greedy ships 52 of a cut-union bound of 56; the path search could
        # not finish in 1000 nodes, and the LP proves 56 in far fewer pivots.
        net = parse_network((COUNTEREXAMPLES / "gap_110.net").read_text())
        result = optimal_value(net, max_candidates=1000)
        assert (result.optimum, result.truncated) == (56, False)
        assert_witness_proves(net, result)
        assert (result.greedy.total_value, result.bounds.inclusion_exclusion) == (52, 56)
        assert result.optimum - result.greedy.total_value == 4

    def test_truncation_is_reported(self, golden_net):
        # A truncated search reports greedy's total as its lower bound.
        result = optimal_value(golden_net, max_candidates=1)
        assert result.truncated
        assert result.optimum == result.greedy.total_value == 25
        assert result.optimum - result.greedy.total_value == 0
