"""Flow table construction, shipments as greedy makes them, and audit
invariants."""

import dataclasses
import random
import tracemalloc

import pytest
from hypothesis import given, settings

from helpers import audit_tables, networks, random_network, regular_network, render_network
from mcflow import (
    build_tables,
    color_name,
    greedy_solve,
    max_flow,
    parse_network,
)


# Two commodities whose greedy run discards a path and recounts another.
CASCADE = (
    "node v0\nnode v1\nnode v2\n"
    "edge v1 v2 1\nedge v1 v2 3\nedge v2 v0 2\nedge v0 v1 2\n"
    "commodity v0 v2\ncommodity v1 v2\n"
)


def fresh_golden(golden_text):
    return build_tables(parse_network(golden_text))


def outcome(text):
    """Shipments as (label, amount) and discarded labels of a greedy run."""
    a = greedy_solve(build_tables(parse_network(text)))
    return [(p.label, amount) for p, amount in a.shipments], [p.label for p in a.discarded]


class TestBuildTables:
    def test_golden_paths_and_colors(self, golden_text):
        t = fresh_golden(golden_text)
        assert [(p.label, p.edges, color_name(i)) for i, p in enumerate(t.paths)] == [
            ("P1.1", (0,), "Violet"),
            ("P1.2", (1, 2, 3), "Red"),
            ("P2.1", (4, 1, 5), "Green"),
            ("P2.2", (6, 3, 7), "Yellow"),
        ]

    def test_golden_edge_colors(self, golden_text):
        # Every path owns its color, so an edge's colors are its paths.
        t = fresh_golden(golden_text)
        named = [sorted(color_name(p) for p in cell) for _, cell in sorted(t.edge_paths.items())]
        assert named == [
            ["Violet"],
            ["Green", "Red"],
            ["Red"],
            ["Red", "Yellow"],
            ["Green"],
            ["Green"],
            ["Yellow"],
            ["Yellow"],
        ]

    def test_golden_residuals_start_at_capacity(self, golden_text):
        # The first shipment moves its path's smallest capacity.
        t = fresh_golden(golden_text)
        first, amount = greedy_solve(t).shipments[0]
        assert amount == min(t.network.edges[eid].capacity for eid in first.edges) == 5

    def test_golden_bottlenecks_and_color_counts(self, golden_text):
        t = fresh_golden(golden_text)
        assert t.path_color_count == (1, 3, 2, 2)
        assert [amount for _, amount in greedy_solve(t).shipments] == [5, 10, 10]

    def test_golden_cuts_and_values(self, golden_text):
        t = fresh_golden(golden_text)
        assert [sorted(e.id for e in f.min_cut.cut_edges) for f in t.flows] == [[0, 1], [4, 6]]
        assert [f.value for f in t.flows] == [15, 20]

    def test_flows_are_the_commodities_max_flows(self):
        # The tables keep each commodity's max flow as computed, in
        # commodity order, and their paths are those flows' paths.
        rng = random.Random(1717)
        for _ in range(300):
            net = random_network(rng, max_nodes=9, max_edges=24, commodity_range=(1, 4))
            t = build_tables(net)
            assert t.flows == tuple(max_flow(net, c) for c in net.commodities)
            assert t.paths == tuple(p for f in t.flows for p in f.paths)

    def test_golden_audit_clean(self, golden_text):
        assert audit_tables(fresh_golden(golden_text)) == []

    def test_disjoint_counts_all_one(self, disjoint_net):
        t = build_tables(disjoint_net)
        assert t.path_color_count == (1, 1)
        assert [p.bottleneck for p in t.paths] == [4, 6]
        assert [f.value for f in t.flows] == [4, 6]

    def test_invalid_network_rejected(self):
        # No invalid network reaches build_tables: constructing one raises.
        from mcflow import Commodity, Edge, Network

        with pytest.raises(ValueError, match="invalid network: .*negative capacity -1"):
            Network(
                nodes=("s", "t"),
                edges=(Edge(0, "s", "t", -1),),
                commodities=(Commodity(1, "s", "t"),),
            )

    def test_zero_flow_commodity_contributes_no_paths(self):
        net = parse_network(
            "node s\nnode t\nedge s t 0\nedge t s 1\ncommodity s t\n"
        )
        t = build_tables(net)
        assert t.paths == ()
        assert t.edge_paths == {}
        assert [f.value for f in t.flows] == [0]
        assert audit_tables(t) == []

    def test_golden_indexes(self, golden_text):
        t = fresh_golden(golden_text)
        assert [(p.commodity, p.ordinal) for p in t.paths] == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert t.edge_paths == {
            0: (0,), 1: (1, 2), 2: (1,), 3: (1, 3), 4: (2,), 5: (2,), 6: (3,), 7: (3,)
        }

    def test_color_ids_are_dense_and_distinct(self, golden_text):
        t = fresh_golden(golden_text)
        assert set().union(*t.edge_paths.values()) == set(range(4))
        assert len({color_name(p) for p in range(4)}) == 4
        assert [color_name(p) for p in range(16)] == [
            "Violet", "Red", "Green", "Yellow", "Blue", "Orange", "Cyan", "Magenta",
            "Brown", "Pink", "Olive", "Teal", "Navy", "Maroon", "Coral", "Indigo",
        ]
        assert color_name(16) == "Color17"

    def test_sum_of_path_amounts_matches_commodity_value(self, golden_text):
        t = fresh_golden(golden_text)
        for com, flow in zip(t.network.commodities, t.flows):
            total = sum(p.bottleneck for p in t.paths if p.commodity == com.index)
            assert total == flow.value


class TestColorCount:
    def test_golden_lookup(self, golden_text):
        t = fresh_golden(golden_text)
        names = [
            {color_name(c) for eid in p.edges for c in t.edge_paths[eid]} for p in t.paths
        ]
        assert names == [
            {"Violet"},
            {"Red", "Green", "Yellow"},
            {"Red", "Green"},
            {"Red", "Yellow"},
        ]
        assert t.path_color_count == tuple(len(n) for n in names)


class TestApplyShipment:
    """Shipments as greedy_solve makes them, read off its outcome."""

    def test_ship_direct_path_no_discards(self):
        # The golden network's first commodity alone: its direct edge
        # carries one color, so shipping it leaves the other path whole.
        text = (
            "node s1\nnode t1\nnode a\nnode b\n"
            "edge s1 t1 5\nedge s1 a 10\nedge a b 10\nedge b t1 10\n"
            "commodity s1 t1\n"
        )
        assert outcome(text) == ([("P1.1", 5), ("P1.2", 10)], [])

    def test_shipment_cascade_discards_and_strips_colors(self):
        # P2.1 drains edge 0 and discards P1.1.  Stripping P1.1's color
        # drops P1.2 from three colors to two, so it ships (2 units, above
        # its decomposition amount of 1) before P2.2 takes what is left.
        t = build_tables(parse_network(CASCADE))
        assert [(p.label, p.edges, p.bottleneck) for p in t.paths] == [
            ("P1.1", (3, 0), 1),
            ("P1.2", (3, 1), 1),
            ("P2.1", (0,), 1),
            ("P2.2", (1,), 3),
        ]
        assert t.path_color_count == (3, 3, 2, 2)
        assert outcome(CASCADE) == ([("P2.1", 1), ("P1.2", 2), ("P2.2", 1)], ["P1.1"])

    def test_reshipping_rejected(self):
        # P1.2 ships at its recounted key (2, 1); its first key (3, 1) is
        # still queued afterwards and must not ship it again.
        shipped = [label for label, _ in outcome(CASCADE)[0]]
        assert shipped.count("P1.2") == 1

    def test_shipping_discarded_path_rejected(self):
        # P1.1 is discarded while its key (3, 0) is still queued.
        shipped, dropped = outcome(CASCADE)
        assert dropped == ["P1.1"]
        assert "P1.1" not in [label for label, _ in shipped]

    def test_zero_amount_rejected(self):
        # A path left with a zero-residual edge is discarded, never shipped.
        rng = random.Random(808)
        for _ in range(60):
            net = random_network(rng, max_nodes=7, max_edges=14, commodity_range=(1, 4))
            assert all(amount > 0 for _, amount in greedy_solve(build_tables(net)).shipments)

    def test_used_path_keeps_its_colors_on_edges(self):
        # After P2.1 ships, its color still counts on edges 0 and 2.  Were
        # it stripped, P2.2 would ship before P2.3 and the rest would follow
        # a different order.
        text = (
            "node v0\nnode v1\nnode v2\n"
            "edge v1 v0 4\nedge v1 v0 1\nedge v0 v2 3\nedge v0 v2 3\n"
            "edge v1 v0 2\nedge v2 v0 1\n"
            "commodity v2 v0\ncommodity v1 v2\ncommodity v1 v2\n"
        )
        assert outcome(text) == (
            [("P1.1", 1), ("P2.1", 3), ("P2.3", 1), ("P2.4", 2)],
            ["P3.1", "P3.3", "P2.2", "P3.2", "P3.4"],
        )

    def test_full_golden_sequence_leaves_no_active_paths(self, golden_text):
        t = fresh_golden(golden_text)
        a = greedy_solve(t)
        shipped = [p for p, _ in a.shipments]
        assert len(set(shipped)) == len(shipped)
        assert not set(shipped) & set(a.discarded)
        assert set(shipped) | set(a.discarded) == set(t.paths)

    def test_live_bottleneck_can_exceed_decomposition_amount(self):
        # P1.2 got 2 units of flow from the decomposition, but once P1.1 is
        # discarded its edges have 4 units of slack, and it ships them all.
        text = (
            "node v0\nnode v1\nnode v2\n"
            "edge v1 v0 2\nedge v2 v1 4\nedge v0 v2 1\nedge v1 v0 4\n"
            "commodity v2 v0\ncommodity v1 v2\n"
        )
        t = build_tables(parse_network(text))
        assert [(p.label, p.edges, p.bottleneck) for p in t.paths] == [
            ("P1.1", (1, 0), 2),
            ("P1.2", (1, 3), 2),
            ("P2.1", (0, 2), 1),
        ]
        assert outcome(text) == ([("P1.2", 4), ("P2.1", 1)], ["P1.1"])


class TestAuditTables:
    def test_detects_color_set_tampering(self, golden_text):
        t = fresh_golden(golden_text)
        cells = dict(t.edge_paths)
        cells[7] = (0, 3)
        assert audit_tables(dataclasses.replace(t, edge_paths=cells)) != []

    def test_detects_a_cell_for_an_unused_edge(self):
        t = build_tables(parse_network("node s\nnode t\nedge s t 0\ncommodity s t\n"))
        assert audit_tables(t) == []
        assert audit_tables(dataclasses.replace(t, edge_paths={0: ()})) != []

    def test_seeded_random_shipment_sequences_stay_clean(self):
        # Greedy reads the tables and leaves them as build_tables made them.
        rng = random.Random(707)
        for _ in range(40):
            net = random_network(rng, max_nodes=6, max_edges=10, commodity_range=(1, 2))
            t = build_tables(net)
            greedy_solve(t)
            assert audit_tables(t) == []
            assert t == build_tables(net)

    @settings(max_examples=40)
    @given(networks(max_nodes=6, max_edges=10, max_commodities=2))
    def test_built_tables_always_audit_clean(self, net):
        assert audit_tables(build_tables(net)) == []


class TestTablesSize:
    def test_cuts_keep_their_smaller_side(self):
        # About 177 KB; 474 KB when every cut kept its source side as a
        # frozenset, 599 names wide whenever the cut was the sink's in-edges.
        net = parse_network(render_network(regular_network(random.Random(1), 600, 4, 16)))
        net.arcs  # built once per network, not by the tables
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tables = build_tables(net)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        cuts = [flow.min_cut for flow in tables.flows]
        assert sum(not cut.side_is_source for cut in cuts) >= 4
        assert all(2 * len(cut.side) <= len(net.nodes) for cut in cuts)
        assert held < 200_000
