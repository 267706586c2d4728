"""Augmenting-path search, max flow against a brute-force cut oracle and
the stepwise reference, the paths max flow peels and its cycle cancelling
against their references, the search count, and the per-network caches."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings

from helpers import (
    CountingDict,
    CountingList,
    CountingTuple,
    add_circulations,
    brute_force_min_cut,
    dense_flow,
    flow_is_feasible,
    networks,
    random_network,
    reference_augment,
    reference_augmenting_path,
    reference_cancel_flow_cycles,
    reference_decompose_cut_paths,
    reference_find_flow_cycle,
    reference_max_flow,
    regular_network,
    residual_hop_distance,
)
from mcflow import (
    Commodity,
    Edge,
    Network,
    build_tables,
    greedy_solve,
    max_flow,
    parse_network,
    render_path,
)
from mcflow import maxflow
from mcflow.maxflow import _cancel_flow_cycles


def assert_matches_reference(net):
    """The whole FlowState, min cut and paths included, equals the
    reference for every commodity, and its flows run by ascending edge id."""
    for com in net.commodities:
        f = max_flow(net, com)
        assert f == reference_max_flow(net, com)
        assert list(f.edge_flow) == sorted(f.edge_flow)


def assert_cancels_like_reference(net, edge_flow):
    """_cancel_flow_cycles leaves the same flows as the reference."""
    ours = {eid: amount for eid, amount in enumerate(edge_flow) if amount > 0}
    theirs = list(edge_flow)
    _cancel_flow_cycles(net, ours)
    reference_cancel_flow_cycles(net, theirs)
    assert dense_flow(net, ours) == theirs
    return theirs


def augmenting_path_lengths(net, s, t):
    """Hop counts of the reference's augmenting paths, in order."""
    flows = (0,) * len(net.edges)
    lengths = []
    while (found := reference_augmenting_path(net, flows, s, t)) is not None:
        lengths.append(len(found.steps))
        flows = reference_augment(net, flows, found)
    return lengths


def _network(nodes, edges):
    """One commodity s -> t over the named nodes and "tail head cap" edges."""
    text = "".join(f"node {v}\n" for v in nodes.split())
    text += "".join(f"edge {e}\n" for e in edges)
    return parse_network(text + "commodity s t\n")


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
        # max_flow's own search agrees: it stops at the saturated flow
        f = max_flow(net, net.commodity(1))
        assert f.edge_flow == {0: 5}
        assert [p.edges for p in f.paths] == [(0,)]

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
        f = max_flow(net, net.commodity(1))
        assert f.value == 2
        assert f == reference_max_flow(net, net.commodity(1))

    def test_unknown_node_rejected(self, golden_net):
        with pytest.raises(ValueError, match="is not declared by the network"):
            max_flow(golden_net, Commodity(1, "s1", "zz"))

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
    """max_flow must equal the stepwise reference, min cut and paths
    included.

    The reference starts a new search for every augmenting path; max_flow
    finds the same paths in phases, so these cases also stress phases
    with several augmentations and nodes stranded mid-phase."""

    def test_seeded_corpus(self):
        rng = random.Random(4404)
        for _ in range(240):
            net = random_network(
                rng, max_nodes=10, max_edges=24, commodity_range=(1, 3)
            )
            assert_matches_reference(net)

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
        f = max_flow(net, net.commodity(1))
        assert f.edge_flow == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 7: 1, 8: 1}
        assert f == reference_max_flow(net, net.commodity(1))

    @settings(max_examples=100)
    @given(networks(max_nodes=7, max_edges=14, max_commodities=3))
    def test_random_networks(self, net):
        assert_matches_reference(net)

    def test_several_paths_per_phase(self):
        # Dense networks with unit and small capacities: one distance to
        # the sink carries several augmentations (a phase of max_flow), and
        # augmenting strands nodes mid-phase (over 900 dead ends here).
        rng = random.Random(7)
        phases_with_several = 0
        for _ in range(150):
            net = random_network(
                rng,
                max_nodes=40,
                max_edges=300,
                max_cap=rng.choice((1, 2, 3)),
                commodity_range=(1, 3),
            )
            assert_matches_reference(net)
            for com in net.commodities:
                lengths = augmenting_path_lengths(net, com.source, com.sink)
                phases_with_several += sum(
                    1 for _, run in itertools.groupby(lengths) if len(list(run)) > 1
                )
        assert phases_with_several >= 300

    def test_node_stranded_within_a_phase(self):
        # All four paths have three hops.  The first, s-a-x-t, saturates
        # x->t, so x (two hops from s) is a dead end when b and then c try
        # it later in the same phase; both must move on to y.
        net = parse_network(
            "node s\nnode a\nnode b\nnode c\nnode x\nnode y\nnode t\n"
            "edge s a 2\nedge s b 1\nedge s c 1\n"
            "edge a x 1\nedge b x 1\nedge c x 1\nedge x t 1\n"
            "edge a y 1\nedge y t 3\nedge b y 1\nedge c y 1\n"
            "commodity s t\n"
        )
        assert augmenting_path_lengths(net, "s", "t") == [3, 3, 3, 3]
        f = max_flow(net, net.commodity(1))
        assert f.value == 4
        assert f.edge_flow == {0: 2, 1: 1, 2: 1, 3: 1, 6: 1, 7: 1, 8: 3, 9: 1, 10: 1}
        assert f == reference_max_flow(net, net.commodity(1))

    # Each phase's search grows whole levels from both ends, always on the
    # side with the smaller frontier (the source side on a tie).  The
    # networks below steer it into each way a search can end; the comments
    # give the levels it grows.

    def test_sides_meet_on_a_forward_level(self):
        # First phase: {s}, {a}, then {u, t} from s: t is met with b = 0.
        # u shares the meeting level and leads on to w, so labeling that
        # level would send the walk off the shortest paths.  Second phase:
        # s-a-u-w-t, met forward again.
        net = _network(
            "s a u w t x1 x2 x3",
            ["s a 2", "a u 1", "a t 1", "u w 1", "w t 1", "x1 t 1", "x2 t 1", "x3 t 1"],
        )
        assert augmenting_path_lengths(net, "s", "t") == [2, 4]
        assert_matches_reference(net)

    def test_sides_meet_on_a_forward_level_past_the_sink(self):
        # {s}, {a}, {b, c} from s, then t's five in-neighbours, then {d}
        # from s: met at forward depth 3, backward depth 1.  Levels 0-2
        # take labels 4 down to 2 (s, a, then b and c), and one phase
        # carries both paths.
        net = _network(
            "s a b c d t x1 x2 x3 x4",
            ["s a 2", "a b 1", "a c 1", "b d 1", "c d 1", "d t 2"]
            + [f"x{i} t 1" for i in range(1, 5)],
        )
        assert augmenting_path_lengths(net, "s", "t") == [4, 4]
        assert_matches_reference(net)

    def test_sides_meet_on_a_backward_level(self):
        # {s}, then s's five out-neighbours; {b} and {a} from t: met at
        # backward depth 2, and only s is labeled from its depth.  After
        # the flow, t's side runs dry first and s's side finishes alone.
        net = _network(
            "s x1 x2 x3 x4 a b t",
            [f"s x{i} 1" for i in range(1, 5)] + ["s a 2", "a b 2", "b t 2"],
        )
        assert_matches_reference(net)

    def test_walk_backs_out_of_a_labeled_dead_end(self):
        # {s}, {x, a} from s, {c, y1, y2} from t, then {b} and {c} from s:
        # met at forward depth 3, so D = 4.  x is labeled 3 from its depth
        # though no arc leaves it, so the walk enters x first, finds it a
        # dead end and backs out to take s-a-b-c-t.
        net = _network(
            "s x a b c t y1 y2",
            ["s x 1", "s a 1", "a b 1", "b c 1", "c t 1", "y1 t 1", "y2 t 1"],
        )
        res = [0] * (2 * len(net.edges))
        res[0::2] = net.arcs.capacity
        assert maxflow._search(net.arcs.out, res, 0, 5) == ([4, 3, 3, 2, 1, 0, 1, 1], None)
        assert_matches_reference(net)

    def test_source_side_runs_dry_first(self):
        # The last search grows {a1, a2, a3} from s, {x1, x2} and {y1, y2,
        # y3} from t, then {b} from s, whose only arc on is saturated: the
        # cut comes from the source side's own labels.
        net = _network(
            "s a1 a2 a3 b t x1 x2 y1 y2 y3",
            [f"s a{i} 5" for i in (1, 2, 3)]
            + [f"a{i} b 5" for i in (1, 2, 3)]
            + ["b t 1", "x1 t 1", "x2 t 1", "y1 x1 1", "y2 x1 1", "y3 x2 1"],
        )
        f = max_flow(net, net.commodity(1))
        assert f.min_cut.source_side == ("s", "a1", "a2", "a3", "b")
        assert_matches_reference(net)

    def test_sink_side_runs_dry_first(self):
        # The last search grows {a, x1} from s, then nothing from t, whose
        # one in-arc is saturated; s's side has to finish alone, one level
        # at a time down the x1-x5 chain.
        net = _network(
            "s a x1 x2 x3 x4 x5 t",
            ["s a 5", "a t 1", "s x1 1"] + [f"x{i} x{i + 1} 1" for i in range(1, 5)],
        )
        f = max_flow(net, net.commodity(1))
        assert f.min_cut.source_side == ("s", "a", "x1", "x2", "x3", "x4", "x5")
        assert_matches_reference(net)

    def test_lopsided_fan_out_and_chain(self):
        # Two levels of fan-out at s (2, then 8 nodes) and a six-node chain
        # into t with one shortcut: the phases meet on a backward level
        # and on forward levels, the first phase labels three nodes from
        # their depth, and the last search ends with t's side dry.
        xs = [f"x{i}" for i in range(8)]
        net = _network(
            "s p0 p1 " + " ".join(xs) + " c0 c1 c2 c3 c4 c5 t",
            ["s p0 8", "s p1 8"]
            + [f"p{i % 2} {x} 2" for i, x in enumerate(xs)]
            + [f"{x} c{i % 3} 1" for i, x in enumerate(xs)]
            + [f"c{j} c{j + 1} 4" for j in range(5)]
            + ["c5 t 6", "c1 c4 1"],
        )
        assert augmenting_path_lengths(net, "s", "t") == [6, 7, 7, 8]
        assert_matches_reference(net)

    def test_regular_corpus(self):
        # Sparse digraphs like the benchmark's: every node has degree 2-4
        # in and out, so the searches from both ends grow for several
        # levels before they meet.
        rng = random.Random(1971)
        for _ in range(80):
            net = regular_network(
                rng,
                rng.randint(6, 200),
                rng.randint(2, 4),
                4,
                max_cap=rng.choice((1, 3, 20)),
            )
            assert_matches_reference(net)


class TestMaxFlow:
    def test_single_edge_value_and_cut(self, single_edge_text):
        net = parse_network(single_edge_text)
        f = max_flow(net, net.commodity(1))
        assert f.value == 5
        assert f.min_cut.capacity == 5
        assert [e.id for e in f.min_cut.cut_edges] == [0]
        assert f.min_cut.source_side == ("s",)

    def test_golden_commodity_values(self, golden_net):
        # Frozen constants, re-derived here by the subset-enumeration oracle.
        f1 = max_flow(golden_net, golden_net.commodity(1))
        f2 = max_flow(golden_net, golden_net.commodity(2))
        assert f1.value == 15 == brute_force_min_cut(golden_net, "s1", "t1")
        assert f2.value == 20 == brute_force_min_cut(golden_net, "s2", "t2")
        assert sorted(e.id for e in f1.min_cut.cut_edges) == [0, 1]
        assert sorted(e.id for e in f2.min_cut.cut_edges) == [4, 6]

    def test_source_equals_sink_rejected(self, golden_net):
        with pytest.raises(ValueError, match="is not declared by the network"):
            max_flow(golden_net, Commodity(1, "s1", "s1"))

    def test_unknown_node_rejected(self, golden_net):
        with pytest.raises(ValueError, match="is not declared by the network"):
            max_flow(golden_net, Commodity(1, "nope", "t1"))

    def test_undeclared_commodity_rejected(self, golden_net):
        # The golden network declares s1 -> t1 and s2 -> t2.
        undeclared = [
            Commodity(0, "s1", "t1"),  # index out of range, below
            Commodity(3, "s1", "t1"),  # and above
            Commodity(1, "s2", "t2"),  # a declared index with other endpoints
            Commodity(1, "s1", "t2"),
            Commodity(2, "s1", "t1"),
        ]
        for com in undeclared:
            with pytest.raises(ValueError, match="is not declared by the network"):
                max_flow(golden_net, com)

    def test_disconnected_pair_has_zero_flow(self):
        net = parse_network("node s\nnode t\nedge t s 3\ncommodity s t\n")
        f = max_flow(net, net.commodity(1))
        assert f.value == 0
        assert f.min_cut.capacity == 0

    def test_seeded_corpus_matches_brute_force(self):
        rng = random.Random(1105)
        for _ in range(80):
            net = random_network(rng, max_nodes=7, max_edges=12)
            com = net.commodities[0]
            f = max_flow(net, com)
            assert f.value == f.min_cut.capacity
            assert f.value == brute_force_min_cut(net, com.source, com.sink)
            flows = dense_flow(net, f.edge_flow)
            assert flow_is_feasible(net, flows, com.source, com.sink)
            # cut edges saturated, reverse edges across the cut idle
            side = f.min_cut.source_side
            for e in net.edges:
                if e.tail in side and e.head not in side:
                    assert flows[e.id] == e.capacity
                if e.head in side and e.tail not in side:
                    assert flows[e.id] == 0

    def test_two_runs_identical(self, golden_net):
        a = max_flow(golden_net, golden_net.commodity(2))
        b = max_flow(golden_net, golden_net.commodity(2))
        assert a == b

    @settings(max_examples=60)
    @given(networks(max_nodes=6, max_edges=10))
    def test_value_equals_cut_and_flow_feasible(self, net):
        com = net.commodities[0]
        f = max_flow(net, com)
        assert f.value == f.min_cut.capacity
        assert flow_is_feasible(net, dense_flow(net, f.edge_flow), com.source, com.sink)


class TestDecomposeCutPaths:
    def test_golden_commodity_1(self, golden_net):
        paths = max_flow(golden_net, golden_net.commodity(1)).paths
        assert [(p.label, p.edges, p.bottleneck) for p in paths] == [
            ("P1.1", (0,), 5),
            ("P1.2", (1, 2, 3), 10),
        ]

    def test_golden_commodity_2(self, golden_net):
        paths = max_flow(golden_net, golden_net.commodity(2)).paths
        assert [(p.label, p.edges, p.bottleneck) for p in paths] == [
            ("P2.1", (4, 1, 5), 10),
            ("P2.2", (6, 3, 7), 10),
        ]

    def test_paths_are_frozen(self, golden_net):
        path = max_flow(golden_net, golden_net.commodity(1)).paths[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            path.bottleneck = 0

    def test_flow_cycle_is_cancelled(self):
        # Maximal flow whose extra units spin on a detached cycle.
        net = parse_network(
            "node s\nnode t\nnode a\nnode b\n"
            "edge s t 1\nedge a b 1\nedge b a 1\n"
            "commodity s t\n"
        )
        assert assert_cancels_like_reference(net, (1, 1, 1)) == [1, 0, 0]

    def test_zero_flow_on_disconnected_pair_gives_no_paths(self):
        net = parse_network("node s\nnode t\nedge t s 3\ncommodity s t\n")
        assert max_flow(net, net.commodity(1)).paths == ()

    def test_seeded_corpus_properties(self):
        rng = random.Random(2211)
        for _ in range(80):
            net = random_network(rng, max_nodes=7, max_edges=12)
            com = net.commodities[0]
            f = max_flow(net, com)
            paths = f.paths
            assert sum(p.bottleneck for p in paths) == f.value
            cut_ids = {e.id for e in f.min_cut.cut_edges}
            replay = [0] * len(net.edges)
            for p in paths:
                assert p.bottleneck >= 1
                nodes = render_path(net, p.edges).split("->")
                assert nodes[0] == com.source and nodes[-1] == com.sink
                assert len(set(nodes)) == len(nodes)
                assert sum(1 for eid in p.edges if eid in cut_ids) == 1
                for eid in p.edges:
                    replay[eid] += p.bottleneck
            # replay stays under the original flow edge-wise, same value
            assert all(r <= flow for r, flow in zip(replay, dense_flow(net, f.edge_flow)))

    @settings(max_examples=60)
    @given(networks(max_nodes=6, max_edges=10))
    def test_decomposition_sums_to_value(self, net):
        com = net.commodities[0]
        f = max_flow(net, com)
        paths = f.paths
        assert sum(p.bottleneck for p in paths) == f.value
        assert [p.ordinal for p in paths] == list(range(1, len(paths) + 1))


class TestDecompositionChecksItsCut:
    """The decomposition checks its paths against the min cut it is given:
    each path uses exactly one cut edge, and the amounts sum to the cut's
    capacity."""

    def test_doctored_cut_is_rejected(self):
        net = _network("s a b t", ["s a 2", "a b 1", "b t 2", "s b 1"])
        com = net.commodity(1)
        f = max_flow(net, com)
        assert [e.id for e in f.min_cut.cut_edges] == [1, 3]
        doctored = [
            (net.edges[:3], 4, "exactly once"),  # s-a-b-t crosses s->a, a->b and b->t
            ((), 2, "exactly once"),  # crossed by no path
            (f.min_cut.cut_edges, 3, "sum to the cut capacity"),
        ]
        for cut_edges, capacity, message in doctored:
            cut = dataclasses.replace(f.min_cut, cut_edges=cut_edges, capacity=capacity)
            with pytest.raises(AssertionError, match=message):
                maxflow.decompose_cut_paths(net, com, dict(f.edge_flow), cut)
        assert maxflow.decompose_cut_paths(net, com, dict(f.edge_flow), f.min_cut) == f.paths


class TestDecompositionMatchesReference:
    """max_flow's paths must equal the dict-based reference decomposition,
    including on flows with cycles to cancel, and cycle cancelling must
    equal its reference on flows with many cycles."""

    def test_seeded_corpus_with_flow_cycles(self):
        rng = random.Random(2)
        with_cycles = 0
        for _ in range(3000):
            net = random_network(rng, max_nodes=12, max_edges=80)
            com = net.commodities[0]
            f = max_flow(net, com)
            if reference_find_flow_cycle(net, dense_flow(net, f.edge_flow)) is not None:
                with_cycles += 1
            assert f.paths == tuple(reference_decompose_cut_paths(net, com, f))
        assert with_cycles >= 1  # the comparison covers cycle cancelling

    def test_added_circulations(self):
        # Max flows with spare capacity pushed around cycles: same value,
        # still maximal, several cycles per flow to cancel.
        rng = random.Random(919)
        with_cycles = 0
        for _ in range(150):
            net = random_network(rng, max_nodes=8, max_edges=30, max_cap=6)
            com = net.commodities[0]
            f = max_flow(net, com)
            spun = add_circulations(net, dense_flow(net, f.edge_flow), rng)
            if reference_find_flow_cycle(net, list(spun)) is not None:
                with_cycles += 1
            cancelled = assert_cancels_like_reference(net, spun)
            assert reference_find_flow_cycle(net, cancelled) is None
        assert with_cycles >= 50


class TestSearchCount:
    """Each max flow searches once per phase, that is once per distinct
    augmenting path length, and once more to find the sink out of reach.
    That last search labels the min cut the paths are peeled against, so
    decomposing them costs no search of its own."""

    @staticmethod
    def assert_search_count(monkeypatch, nets):
        calls = []
        search = maxflow._search

        def counting(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(maxflow, "_search", counting)
        for net in nets:
            calls.clear()
            build_tables(net)
            expected = sum(
                len(set(augmenting_path_lengths(net, com.source, com.sink))) + 1
                for com in net.commodities
            )
            assert len(calls) == expected

    def test_golden_network(self, monkeypatch, golden_net):
        self.assert_search_count(monkeypatch, [golden_net])

    def test_seeded_corpus(self, monkeypatch):
        rng = random.Random(1212)
        nets = [
            random_network(rng, max_nodes=12, max_edges=40, max_cap=4, commodity_range=(1, 4))
            for _ in range(120)
        ]
        self.assert_search_count(monkeypatch, nets)


class TestStressFixtures:
    """Max flow and decomposition equal the references on shapes the
    random corpora rarely produce."""

    def test_dense_parallel_edges(self):
        rng = random.Random(31)
        for _ in range(40):
            net = random_network(
                rng, max_nodes=4, max_edges=150, max_cap=12, commodity_range=(2, 3)
            )
            assert_matches_reference(net)

    def test_zero_capacity_edges(self):
        rng = random.Random(32)
        for _ in range(150):
            net = random_network(
                rng, max_nodes=8, max_edges=20, max_cap=1, commodity_range=(1, 3)
            )
            assert_matches_reference(net)

    def test_only_path_has_zero_capacity(self):
        net = parse_network(
            "node s\nnode a\nnode b\nnode t\n"
            "edge s a 5\nedge a t 0\nedge t b 4\nedge b s 0\n"
            "commodity s t\ncommodity b a\n"
        )
        assert_matches_reference(net)
        f = max_flow(net, net.commodity(1))
        assert f.value == 0
        assert f.edge_flow == {}
        assert f.min_cut.source_side == ("s", "a")
        assert [e.id for e in f.min_cut.cut_edges] == [1]
        assert f.paths == ()

    def test_all_zero_capacities(self):
        net = parse_network(
            "node s\nnode a\nnode t\n"
            "edge s a 0\nedge a t 0\nedge s t 0\nedge s t 0\n"
            "commodity s t\n"
        )
        assert_matches_reference(net)
        f = max_flow(net, net.commodity(1))
        assert (f.value, f.min_cut.source_side) == (0, ("s",))
        assert [e.id for e in f.min_cut.cut_edges] == [0, 2, 3]

    def test_regular_digraph_600_nodes(self):
        net = regular_network(random.Random(600), 600, 4, 3)
        assert len(net.edges) == 2400
        assert_matches_reference(net)


class TestSmallerSideCut:
    """Max flow reads its min cut from the smaller side: the forward arcs
    leaving a source side of under half the nodes, or else the backward
    arcs of the nodes outside it.  Both must give the reference's cut,
    capacity-0 and parallel crossing edges included, in edge-id order."""

    @staticmethod
    def assert_cut_matches_reference(net, source_side_is_smaller):
        com = net.commodities[0]
        f = max_flow(net, com)
        expected = reference_max_flow(net, com)
        assert (2 * len(f.min_cut.source_side) < len(net.nodes)) == source_side_is_smaller
        assert f.min_cut.cut_edges == expected.min_cut.cut_edges
        assert f.min_cut.source_side == expected.min_cut.source_side
        assert f == expected
        return f.min_cut

    def test_source_side_under_half(self):
        net = _network(
            "s a t b c d e",
            [
                "a t 2", "b t 4", "s a 9", "a b 0", "t c 1",
                "c d 1", "a t 3", "d e 1", "e a 5", "b s 2",
            ],
        )
        cut = self.assert_cut_matches_reference(net, True)
        assert cut.source_side == ("s", "a")
        assert (cut.side, cut.side_is_source) == (("s", "a"), True)
        assert [e.id for e in cut.cut_edges] == [0, 3, 6]
        assert cut.capacity == 5

    def test_source_side_over_half(self):
        net = _network(
            "s a b c d t e",
            [
                "b t 0", "s a 9", "a b 9", "b c 9", "c d 9", "t b 4",
                "d e 1", "e t 9", "c t 2", "c t 2", "s d 9", "e c 3",
            ],
        )
        cut = self.assert_cut_matches_reference(net, False)
        assert cut.source_side == ("s", "a", "b", "c", "d")
        # Only the sink side is kept, in declaration order.
        assert (cut.side, cut.side_is_source) == (("t", "e"), False)
        assert [e.id for e in cut.cut_edges] == [0, 6, 8, 9]
        assert cut.capacity == 5


class TestSupportBound:
    """After its last search, max flow reads only the edges its
    augmentations pushed on: cancelling flow cycles and peeling paths cost
    O(support), however much of the network the flow never touches."""

    # The first path s-u-v-t leaves only s-x-v-u-y-t, which takes the
    # forward edge v->u before the backward arc of u->v: a flow cycle.
    GADGET = ["s u 1", "u v 1", "v t 1", "s x 1", "x v 1", "v u 1", "u y 1", "y t 1"]

    @classmethod
    def ring_and_gadget(cls):
        """The gadget after 1 212 edges of a ring that no s-t path can use;
        returns the network and the gadget's first edge id."""
        size = 600
        names = " ".join(f"z{i}" for i in range(size))
        ring = [f"z{i} z{(i + 1) % size} 3" for i in range(size)]
        ring += [f"z{i} z{(i + 7) % size} 2" for i in range(size)]
        ring += [f"z{i} s 1" for i in range(0, size, 50)]  # into s, never out of it
        return _network(f"s t u v x y {names}", ring + cls.GADGET), len(ring)

    def test_records_hold_only_the_support(self):
        # Before cancelling every gadget edge carries one unit; no path
        # keeps u->v or v->u, the cycle cancelling zeroes.
        net, first = self.ring_and_gadget()
        f = max_flow(net, net.commodity(1))
        assert f.edge_flow == dict.fromkeys(range(first, first + len(self.GADGET)), 1)
        tables = build_tables(net)
        assert set(tables.edge_paths) == {e for p in tables.paths for e in p.edges}
        assert sorted(tables.edge_paths) == [first + e for e in (0, 2, 3, 4, 6, 7)]

    def test_unreached_component_is_not_read(self, monkeypatch):
        net, first = self.ring_and_gadget()
        gadget = self.GADGET
        expected = reference_max_flow(net, net.commodity(1))
        assert reference_find_flow_cycle(net, dense_flow(net, expected.edge_flow)) is not None

        # Every read the decomposition makes is counted: the flows, the
        # cut, the network's edges and its arcs.
        edges = CountingTuple(net.edges)
        net = Network(net.nodes, edges, net.commodities)
        arcs = net.arcs
        index, out = CountingDict(arcs.index), CountingList(arcs.out)
        net.__dict__["arcs"] = arcs._replace(index=index, out=out)
        decompose = maxflow.decompose_cut_paths
        counted = {}

        def counting(net, com, flows, cut):
            flows = CountingDict(flows)
            cut = dataclasses.replace(cut, cut_edges=CountingTuple(cut.cut_edges))
            before = edges.reads + index.reads + out.reads
            paths = decompose(net, com, flows, cut)
            counted["support"] = len(flows)
            counted["reads"] = (
                flows.reads + cut.cut_edges.reads + edges.reads + index.reads + out.reads - before
            )
            return paths

        monkeypatch.setattr(maxflow, "decompose_cut_paths", counting)
        f = max_flow(net, net.commodity(1))
        assert f == expected
        assert [p.edges for p in f.paths] == [
            tuple(first + e for e in (0, 6, 7)),
            tuple(first + e for e in (3, 4, 2)),
        ]
        assert counted["support"] == len(gadget)
        assert counted["reads"] <= 16 * len(gadget) < len(net.edges) / 8


class TestPerNetworkCaches:
    """Networks cache their arcs on the instance and check their own
    validity.  A cache keyed by object id would hand a freed network's
    result to a new network that reuses its id."""

    SHAPES = [
        "node a\nnode b\nedge a b 3\ncommodity a b\n",
        "node x\nnode a\nnode b\nedge a x 2\nedge x b 1\nedge a b 4\ncommodity a b\n",
        "node b\nnode a\nedge b a 7\nedge a b 2\ncommodity a b\ncommodity b a\n",
    ]

    def test_freed_networks_do_not_share_results(self):
        rng = random.Random(8)
        parts = [parse_network(text) for text in self.SHAPES]
        parts += [
            random_network(rng, max_nodes=9, max_edges=25, commodity_range=(1, 3))
            for _ in range(30)
        ]
        parts = [(net.nodes, net.edges, net.commodities) for net in parts]
        ids = []
        for nodes, edges, commodities in parts * 2:
            net = Network(nodes, edges, commodities)
            ids.append(id(net))
            greedy_solve(build_tables(net))
            for com in net.commodities:
                assert max_flow(net, com) == reference_max_flow(net, com)
            del net
        assert len(set(ids)) < len(ids)  # ids were reused, so the check bites

    def test_invalid_networks_keep_their_own_problems(self):
        cases = [(Edge(0, "s", "t", -k), f"negative capacity -{k}") for k in range(1, 6)]
        cases += [
            (Edge(0, "s", "s", 1), "self-loop"),
            (Edge(0, "s", "u", 1), "endpoint 'u' not declared"),
        ]
        for edge, expected in cases:
            with pytest.raises(ValueError) as excinfo:
                Network(("s", "t"), (edge,), (Commodity(1, "s", "t"),))
            message = str(excinfo.value)
            assert message.startswith("invalid network: ") and expected in message
            assert ";" not in message  # one problem, its own
