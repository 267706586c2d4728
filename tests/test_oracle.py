"""Exhaustive path enumeration, branch-and-bound optimum, and the
heuristic-versus-optimum report."""

import dataclasses
import random

import pytest
from hypothesis import given, settings

import mcflow.oracle
from helpers import (
    certified_cut_union_bound,
    exhaustive_best,
    networks,
    random_network,
    reference_optimal_value,
)
from mcflow import (
    OracleLimitError,
    build_tables,
    enumerate_paths,
    gap_report,
    greedy_solve,
    max_flow,
    optimal_value,
    parse_network,
    upper_bounds,
)


class TestEnumeratePaths:
    def test_golden_commodity_1(self, golden_net):
        paths = enumerate_paths(golden_net, golden_net.commodity(1))
        assert [(p.edges, p.bottleneck) for p in paths] == [
            ((0,), 5),
            ((1, 2, 3), 10),
        ]

    def test_golden_commodity_2_has_four_paths(self, golden_net):
        paths = enumerate_paths(golden_net, golden_net.commodity(2))
        assert [(p.edges, p.bottleneck) for p in paths] == [
            ((4, 0, 7), 5),
            ((4, 1, 2, 3, 7), 10),
            ((4, 1, 5), 10),
            ((6, 3, 7), 10),
        ]

    def test_limit_enforced(self, golden_net):
        with pytest.raises(OracleLimitError, match="more than 2"):
            enumerate_paths(golden_net, golden_net.commodity(2), limit=2)

    def test_no_route_gives_empty_list(self):
        net = parse_network("node s\nnode t\nedge t s 3\ncommodity s t\n")
        assert enumerate_paths(net, net.commodity(1)) == []

    def test_zero_capacity_path_is_still_listed(self):
        net = parse_network("node s\nnode t\nedge s t 0\ncommodity s t\n")
        paths = enumerate_paths(net, net.commodity(1))
        assert [(p.edges, p.bottleneck) for p in paths] == [((0,), 0)]

    @settings(max_examples=40)
    @given(networks(max_nodes=5, max_edges=8, max_commodities=1))
    def test_paths_are_simple_and_sorted_by_discovery(self, net):
        com = net.commodities[0]
        paths = enumerate_paths(net, com, limit=200)
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


class TestOptimalValue:
    def test_golden_optimum_and_witness(self, golden_net):
        result = optimal_value(golden_net)
        assert result.optimum == 25
        assert not result.truncated
        assert result.witness == (5, 0, 0, 0, 10, 10)
        assert [p.edges for p in result.paths] == [
            (0,),
            (1, 2, 3),
            (4, 0, 7),
            (4, 1, 2, 3, 7),
            (4, 1, 5),
            (6, 3, 7),
        ]

    def test_golden_witness_is_feasible(self, golden_net):
        result = optimal_value(golden_net)
        usage = [0] * len(golden_net.edges)
        for path, amount in zip(result.paths, result.witness):
            assert 0 <= amount <= path.bottleneck
            for eid in path.edges:
                usage[eid] += amount
        assert all(usage[e.id] <= e.capacity for e in golden_net.edges)
        assert sum(result.witness) == 25

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

    def test_witness_is_lexicographically_smallest(self):
        # Two routes fight over one unit; the tie must resolve to the
        # later path so earlier amounts stay minimal.
        net = parse_network(
            "node s\nnode a\nnode t\n"
            "edge s a 1\nedge a t 1\nedge s a 1\n"
            "commodity s t\n"
        )
        result = optimal_value(net)
        assert [p.edges for p in result.paths] == [(0, 1), (2, 1)]
        assert result.optimum == 1
        assert result.witness == (0, 1)

    def test_single_commodity_matches_max_flow(self):
        rng = random.Random(808)
        for _ in range(40):
            net = random_network(rng, max_nodes=5, max_edges=8, max_cap=6)
            com = net.commodities[0]
            result = optimal_value(net, max_paths=200)
            assert not result.truncated
            assert result.optimum == max_flow(net, com.source, com.sink).value

    def test_matches_brute_force_product_enumeration(self):
        rng = random.Random(909)
        checked = 0
        while checked < 25:
            net = random_network(rng, max_nodes=4, max_edges=6, max_cap=3, commodity_range=(1, 2))
            catalog = [
                p for com in net.commodities for p in enumerate_paths(net, com, limit=50)
            ]
            combos = 1
            for p in catalog:
                combos *= p.bottleneck + 1
            if combos > 100_000:
                continue
            result = optimal_value(net, max_paths=50)
            assert not result.truncated
            assert result.optimum == exhaustive_best(net, catalog)
            checked += 1

    def test_no_route_gives_zero(self):
        net = parse_network("node s\nnode t\nedge t s 3\ncommodity s t\n")
        result = optimal_value(net)
        assert result.optimum == 0
        assert result.witness == ()
        assert not result.truncated

    def test_path_limit_truncates(self, golden_net):
        result = optimal_value(golden_net, max_paths=2)
        assert result.truncated
        assert result.optimum == 0 and result.paths == ()

    def test_candidate_budget_truncates(self, golden_net):
        result = optimal_value(golden_net, max_candidates=1)
        assert result.truncated
        assert result.explored <= 2

    def test_truncated_optimum_is_still_a_lower_bound(self, golden_net):
        for budget in (10, 100, 1000):
            result = optimal_value(golden_net, max_candidates=budget)
            assert result.optimum <= 25

    def test_restricted_catalog_bounds_greedy_from_above(self):
        rng = random.Random(606)
        for _ in range(30):
            net = random_network(rng, max_nodes=5, max_edges=8, max_cap=6, commodity_range=(2, 2))
            tables = build_tables(net)
            catalog = list(tables.paths)
            total = greedy_solve(build_tables(net)).total_value
            result = optimal_value(net, catalog=catalog)
            assert not result.truncated
            assert result.optimum >= total

    def test_deterministic_across_runs(self, golden_net):
        assert optimal_value(golden_net) == optimal_value(golden_net)


class TestMatchesReference:
    """optimal_value must return the recursive reference's whole result:
    optimum, witness, explored count, truncation and catalog."""

    def test_seeded_corpus_at_every_budget(self):
        rng = random.Random(5505)
        nonzero = 0
        for _ in range(200):
            net = random_network(
                rng, max_nodes=6, max_edges=10, max_cap=5, commodity_range=(2, 3)
            )
            full = reference_optimal_value(net)
            assert not full.truncated
            assert optimal_value(net) == full
            nonzero += full.optimum > 0
            # Budget 1 stops the descending pass at its root; one node short
            # of the full count stops the ascending pass at its last node.
            for budget in (1, full.explored - 1):
                result = optimal_value(net, max_candidates=budget)
                assert result == reference_optimal_value(net, max_candidates=budget)
                assert result.truncated
            assert result.optimum == full.optimum
        assert nonzero >= 120

    def test_explicit_catalog(self):
        rng = random.Random(6606)
        for _ in range(60):
            net = random_network(
                rng, max_nodes=6, max_edges=10, max_cap=5, commodity_range=(2, 3)
            )
            catalog = [
                path for com in net.commodities for path in enumerate_paths(net, com)
            ]
            catalog.reverse()
            result = optimal_value(net, catalog=catalog)
            assert result == reference_optimal_value(net, catalog=catalog)
            assert result.paths == tuple(catalog)


def capacity_catalog(net, paths):
    """The same paths, each with its bottleneck set to its smallest capacity."""
    return [
        dataclasses.replace(p, bottleneck=min(net.edges[e].capacity for e in p.edges))
        for p in paths
    ]


def search_fields(result):
    return result.optimum, result.witness, result.explored, result.truncated


class TestDecomposedCatalog:
    """A decomposed path's bottleneck is the amount it carried, which can be
    below its smallest capacity; the search reads capacities from the
    network, so it matches the search over the capacity-bottleneck paths."""

    def test_path_carrying_less_than_its_capacity(self):
        net = parse_network(
            "node v0\nnode v1\nnode v2\n"
            "edge v2 v1 7\nedge v0 v2 5\nedge v2 v0 5\nedge v0 v2 7\nedge v0 v2 5\n"
            "edge v2 v0 0\nedge v2 v1 9\nedge v0 v1 9\nedge v1 v0 2\n"
            "commodity v1 v2\ncommodity v0 v1\n"
        )
        paths = build_tables(net).paths
        capped = capacity_catalog(net, paths)
        assert capped != paths
        result = optimal_value(net, catalog=paths)
        assert not result.truncated
        assert result.optimum == 26
        assert search_fields(result) == search_fields(optimal_value(net, catalog=capped))

    def test_seeded_corpus(self):
        rng = random.Random(7)
        differing = 0
        for _ in range(3000):
            net = random_network(
                rng, max_nodes=6, max_edges=10, max_cap=9, commodity_range=(2, 2)
            )
            paths = build_tables(net).paths
            capped = capacity_catalog(net, paths)
            if capped == paths:
                continue  # the two searches are the same search
            differing += 1
            result = optimal_value(net, catalog=paths, max_candidates=200_000)
            capped_result = optimal_value(net, catalog=capped, max_candidates=200_000)
            assert search_fields(result) == search_fields(capped_result)
        assert differing >= 100


CRITERION_5_110 = (
    "node v0\nnode v1\nnode v2\n"
    "edge v2 v0 8\nedge v0 v2 6\nedge v1 v2 6\nedge v2 v0 9\nedge v1 v2 2\n"
    "edge v2 v1 0\nedge v0 v2 9\nedge v2 v1 4\nedge v0 v2 7\nedge v0 v1 1\n"
    "edge v1 v2 7\nedge v2 v1 6\nedge v0 v1 6\nedge v1 v2 9\n"
    "commodity v0 v2\ncommodity v1 v0\ncommodity v2 v1\n"
)


class TestGapReport:
    def test_golden_report(self, golden_net):
        report = gap_report(golden_net)
        assert report.heuristic_value == 25
        assert report.optimum == 25
        assert report.gap == 0
        assert report.individual_total == 35
        assert report.inclusion_exclusion == 35
        assert not report.truncated

    def test_disjoint_report(self, disjoint_net):
        report = gap_report(disjoint_net)
        assert report.heuristic_value == report.optimum == 10
        assert report.gap == 0

    def test_seeded_corpus_gap_nonnegative_and_bounded(self):
        rng = random.Random(13579)
        for _ in range(30):
            net = random_network(rng, max_nodes=5, max_edges=8, max_cap=5, commodity_range=(2, 2))
            report = gap_report(net, max_paths=100, max_candidates=500_000)
            if report.truncated:
                continue
            assert report.gap >= 0
            assert report.heuristic_value <= report.optimum
            assert report.optimum <= report.inclusion_exclusion
            assert report.optimum <= report.individual_total

    def test_cut_bound_short_circuit_matches_reference(self, monkeypatch):
        # Greedy reaching the cut-union bound is reported as the optimum
        # without a search; the full reference search must agree wherever
        # it finishes, and the bound must pass the independent certificate.
        searches = []

        def counting(*args, **kwargs):
            result = optimal_value(*args, **kwargs)
            searches.append(result)
            return result

        monkeypatch.setattr(mcflow.oracle, "optimal_value", counting)
        rng = random.Random(2024)
        short_circuited = searched = finished = 0
        for _ in range(300):
            net = random_network(
                rng, max_nodes=6, max_edges=10, max_cap=9, commodity_range=(2, 3)
            )
            tables = build_tables(net)
            bound = upper_bounds(tables).inclusion_exclusion
            greedy = greedy_solve(tables).total_value
            before = len(searches)
            report = gap_report(net)
            assert not report.truncated
            assert report.heuristic_value == greedy
            assert report.inclusion_exclusion == bound
            if greedy == bound:
                short_circuited += 1
                assert len(searches) == before
                assert report.optimum == greedy and report.gap == 0
                cut_union = {e.id for cut in tables.cuts.values() for e in cut.cut_edges}
                assert certified_cut_union_bound(net, cut_union) == bound
            else:
                searched += 1
                assert len(searches) == before + 1
            reference = reference_optimal_value(net, max_candidates=20_000)
            if not reference.truncated:
                finished += 1
                assert report.optimum == reference.optimum
        assert short_circuited >= 100
        assert searched >= 10
        assert finished >= 250

    def test_certificate_needs_every_commodity_separated(self, golden_net):
        cuts = build_tables(golden_net).cuts
        union = {e.id for cut in cuts.values() for e in cut.cut_edges}
        assert certified_cut_union_bound(golden_net, union) == 35
        for cut in cuts.values():
            # One commodity's cut alone leaves the other commodity connected.
            assert certified_cut_union_bound(golden_net, {e.id for e in cut.cut_edges}) is None
        assert certified_cut_union_bound(golden_net, ()) is None

    def test_truncated_search_reaching_the_bound_is_exact(self):
        # Criterion 5's instance #110: greedy ships 52 of a cut-union bound
        # of 56, and the search reaches 56 but cannot finish in its budget.
        net = parse_network(CRITERION_5_110)
        result = optimal_value(net, max_candidates=1000)
        assert result.truncated and result.optimum == 56
        report = gap_report(net, max_candidates=1000)
        assert (report.heuristic_value, report.inclusion_exclusion) == (52, 56)
        assert report.optimum == 56 and report.gap == 4
        assert not report.truncated

    def test_truncation_is_reported(self, golden_net):
        assert gap_report(golden_net, max_candidates=1).truncated

    def test_catalog_overflow_reports_greedy_as_lower_bound(self, golden_net):
        # The oracle gives up with optimum 0 once a commodity has more than
        # two simple paths; the greedy total is the better lower bound.
        assert optimal_value(golden_net, max_paths=2).optimum == 0
        report = gap_report(golden_net, max_paths=2)
        assert report.truncated
        assert report.optimum == report.heuristic_value == 25
        assert report.gap == 0
