"""Augmenting-path search, max flow against a brute-force cut oracle and
the stepwise reference, and path decomposition."""

import dataclasses
import random

import pytest
from hypothesis import given, settings

from helpers import (
    brute_force_min_cut,
    flow_is_feasible,
    networks,
    random_network,
    reference_augment,
    reference_augmenting_path,
    reference_max_flow,
    residual_hop_distance,
)
from mcflow import (
    FlowState,
    decompose_cut_paths,
    max_flow,
    parse_network,
    path_nodes,
)

class TestFindAugmentingPath:
    """The reference search defines the tie-break max_flow must follow."""

    def test_single_edge(self, single_edge_text):
        net = parse_network(single_edge_text)
        found = reference_augmenting_path(net, (0,), "s", "t")
        assert found.nodes == ("s", "t")
        assert found.steps == ((0, True),)
        assert found.leeway == 5

    def test_saturated_edge_has_no_path(self, single_edge_text):
        net = parse_network(single_edge_text)
        assert reference_augmenting_path(net, (5,), "s", "t") is None
        # max_flow's own search agrees: the saturated flow decomposes
        f = FlowState(0, "s", "t", (5,), 5)
        assert [p.edges for p in decompose_cut_paths(net, f)] == [(0,)]

    def test_golden_first_path_is_the_direct_edge(self, golden_net):
        found = reference_augmenting_path(golden_net, (0,) * 8, "s1", "t1")
        assert found.nodes == ("s1", "t1")
        assert found.leeway == 5

    def test_backward_step_used_when_needed(self):
        # Only route for the second unit reverses flow on the middle edge.
        net = parse_network(
            "node s\nnode a\nnode b\nnode t\n"
            "edge s a 1\nedge a b 1\nedge b t 1\n"
            "edge s b 1\nedge a t 1\n"
            "commodity s t\n"
        )
        found = reference_augmenting_path(net, (1, 1, 1, 0, 0), "s", "t")
        assert (1, False) in found.steps
        assert found.leeway == 1
        f = max_flow(net, "s", "t")
        assert f.value == 2
        assert f == reference_max_flow(net, "s", "t")

    def test_unknown_node_rejected(self, golden_net):
        with pytest.raises(ValueError, match="not in network"):
            max_flow(golden_net, "s1", "zz")
        with pytest.raises(ValueError, match="not in network"):
            decompose_cut_paths(golden_net, FlowState(0, "s1", "zz", (0,) * 8, 0))

    @settings(max_examples=60)
    @given(networks(max_nodes=6, max_edges=10))
    def test_returned_path_is_shortest(self, net):
        # Hop length must match an independent BFS distance at every step.
        com = net.commodities[0]
        flows = (0,) * len(net.edges)
        while True:
            found = reference_augmenting_path(net, flows, com.source, com.sink)
            expected = residual_hop_distance(net, flows, com.source, com.sink)
            if found is None:
                assert expected is None
                break
            assert len(found.steps) == expected
            assert found.leeway >= 1
            flows = reference_augment(net, flows, found)


class TestAugment:
    def test_value_increases_by_leeway(self, golden_net):
        found = reference_augmenting_path(golden_net, (0,) * 8, "s1", "t1")
        after = reference_augment(golden_net, (0,) * 8, found)
        assert sum(after[e.id] for e in golden_net.edges if e.tail == "s1") == found.leeway
        assert after[0] == 5


class TestMatchesReference:
    """max_flow must equal the stepwise reference, min cut included."""

    def test_seeded_corpus(self):
        rng = random.Random(4404)
        for _ in range(240):
            net = random_network(
                rng, max_nodes=10, max_edges=24, commodity_range=(1, 3)
            )
            for com in net.commodities:
                f = max_flow(net, com.source, com.sink, commodity=com.index)
                ref = reference_max_flow(net, com.source, com.sink, commodity=com.index)
                assert f == ref
                # the cut found inside decomposition matches the stored one
                assert decompose_cut_paths(net, f) == decompose_cut_paths(
                    net, dataclasses.replace(f, min_cut=None)
                )

    def test_forward_step_wins_equal_depth_tie(self):
        # The second search reaches u, then y forward and x backward at the
        # same depth; both lead to w.  Forward first routes via y, keeping
        # the unit on x->u.  Random corpora almost never hit this tie.
        net = parse_network(
            "node s\nnode x\nnode z\nnode u\nnode y\nnode w\nnode t\n"
            "edge s x 1\nedge x u 1\nedge u t 1\nedge s z 1\nedge z u 1\n"
            "edge u y 1\nedge x w 1\nedge y w 1\nedge w t 1\n"
            "commodity s t\n"
        )
        f = max_flow(net, "s", "t")
        assert f.edge_flow == (1, 1, 1, 1, 1, 1, 0, 1, 1)
        assert f == reference_max_flow(net, "s", "t")

    @settings(max_examples=100)
    @given(networks(max_nodes=7, max_edges=14, max_commodities=3))
    def test_random_networks(self, net):
        for com in net.commodities:
            f = max_flow(net, com.source, com.sink, commodity=com.index)
            assert f == reference_max_flow(net, com.source, com.sink, commodity=com.index)


class TestMaxFlow:
    def test_single_edge_value_and_cut(self, single_edge_text):
        net = parse_network(single_edge_text)
        f = max_flow(net, "s", "t")
        assert f.value == 5
        assert f.min_cut.capacity == 5
        assert [e.id for e in f.min_cut.cut_edges] == [0]
        assert f.min_cut.source_side == frozenset({"s"})

    def test_golden_commodity_values(self, golden_net):
        # Frozen constants, re-derived here by the subset-enumeration oracle.
        f1 = max_flow(golden_net, "s1", "t1", commodity=1)
        f2 = max_flow(golden_net, "s2", "t2", commodity=2)
        assert f1.value == 15 == brute_force_min_cut(golden_net, "s1", "t1")
        assert f2.value == 20 == brute_force_min_cut(golden_net, "s2", "t2")
        assert sorted(e.id for e in f1.min_cut.cut_edges) == [0, 1]
        assert sorted(e.id for e in f2.min_cut.cut_edges) == [4, 6]

    def test_source_equals_sink_rejected(self, golden_net):
        with pytest.raises(ValueError, match="source equals sink"):
            max_flow(golden_net, "s1", "s1")

    def test_unknown_node_rejected(self, golden_net):
        with pytest.raises(ValueError, match="not in network"):
            max_flow(golden_net, "nope", "t1")

    def test_disconnected_pair_has_zero_flow(self):
        net = parse_network("node s\nnode t\nedge t s 3\ncommodity s t\n")
        f = max_flow(net, "s", "t")
        assert f.value == 0
        assert f.min_cut.capacity == 0

    def test_seeded_corpus_matches_brute_force(self):
        rng = random.Random(1105)
        for _ in range(80):
            net = random_network(rng, max_nodes=7, max_edges=12)
            com = net.commodities[0]
            f = max_flow(net, com.source, com.sink)
            assert f.value == f.min_cut.capacity
            assert f.value == brute_force_min_cut(net, com.source, com.sink)
            assert flow_is_feasible(net, f.edge_flow, com.source, com.sink)
            # cut edges saturated, reverse edges across the cut idle
            side = f.min_cut.source_side
            for e in net.edges:
                if e.tail in side and e.head not in side:
                    assert f.edge_flow[e.id] == e.capacity
                if e.head in side and e.tail not in side:
                    assert f.edge_flow[e.id] == 0

    def test_two_runs_identical(self, golden_net):
        a = max_flow(golden_net, "s2", "t2")
        b = max_flow(golden_net, "s2", "t2")
        assert a == b

    @settings(max_examples=60)
    @given(networks(max_nodes=6, max_edges=10))
    def test_value_equals_cut_and_flow_feasible(self, net):
        com = net.commodities[0]
        f = max_flow(net, com.source, com.sink)
        assert f.value == f.min_cut.capacity
        assert flow_is_feasible(net, f.edge_flow, com.source, com.sink)


class TestDecomposeCutPaths:
    def test_golden_commodity_1(self, golden_net):
        f = max_flow(golden_net, "s1", "t1", commodity=1)
        paths = decompose_cut_paths(golden_net, f)
        assert [(p.label, p.edges, p.bottleneck) for p in paths] == [
            ("P1.1", (0,), 5),
            ("P1.2", (1, 2, 3), 10),
        ]

    def test_golden_commodity_2(self, golden_net):
        f = max_flow(golden_net, "s2", "t2", commodity=2)
        paths = decompose_cut_paths(golden_net, f)
        assert [(p.label, p.edges, p.bottleneck) for p in paths] == [
            ("P2.1", (4, 1, 5), 10),
            ("P2.2", (6, 3, 7), 10),
        ]

    def test_colors_start_unassigned(self, golden_net):
        f = max_flow(golden_net, "s1", "t1", commodity=1)
        assert all(p.color is None and p.status == "active" for p in decompose_cut_paths(golden_net, f))

    def test_rejects_non_maximal_flow(self, single_edge_text):
        net = parse_network(single_edge_text)
        with pytest.raises(ValueError, match="not maximal"):
            decompose_cut_paths(net, FlowState(0, "s", "t", (0,), 0))

    def test_flow_cycle_is_cancelled(self):
        # Maximal flow whose extra units spin on a detached cycle.
        net = parse_network(
            "node s\nnode t\nnode a\nnode b\n"
            "edge s t 1\nedge a b 1\nedge b a 1\n"
            "commodity s t\n"
        )
        f = FlowState(1, "s", "t", (1, 1, 1), 1)
        paths = decompose_cut_paths(net, f)
        assert [(p.edges, p.bottleneck) for p in paths] == [((0,), 1)]

    def test_zero_flow_on_disconnected_pair_gives_no_paths(self):
        net = parse_network("node s\nnode t\nedge t s 3\ncommodity s t\n")
        f = max_flow(net, "s", "t")
        assert decompose_cut_paths(net, f) == []

    def test_seeded_corpus_properties(self):
        rng = random.Random(2211)
        for _ in range(80):
            net = random_network(rng, max_nodes=7, max_edges=12)
            com = net.commodities[0]
            f = max_flow(net, com.source, com.sink, commodity=com.index)
            paths = decompose_cut_paths(net, f)
            assert sum(p.bottleneck for p in paths) == f.value
            cut_ids = {e.id for e in f.min_cut.cut_edges}
            replay = [0] * len(net.edges)
            for p in paths:
                assert p.bottleneck >= 1
                nodes = path_nodes(net, p.edges)
                assert nodes[0] == com.source and nodes[-1] == com.sink
                assert len(set(nodes)) == len(nodes)
                assert sum(1 for eid in p.edges if eid in cut_ids) == 1
                for eid in p.edges:
                    replay[eid] += p.bottleneck
            # replay stays under the original flow edge-wise, same value
            assert all(replay[e.id] <= f.edge_flow[e.id] for e in net.edges)

    @settings(max_examples=60)
    @given(networks(max_nodes=6, max_edges=10))
    def test_decomposition_sums_to_value(self, net):
        com = net.commodities[0]
        f = max_flow(net, com.source, com.sink, commodity=com.index)
        paths = decompose_cut_paths(net, f)
        assert sum(p.bottleneck for p in paths) == f.value
        assert [p.ordinal for p in paths] == list(range(1, len(paths) + 1))
