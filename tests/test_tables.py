"""Flow table construction, shipment bookkeeping, and audit invariants."""

import random

import pytest
from hypothesis import given, settings

from helpers import audit_tables, networks, random_network
from mcflow import (
    ACTIVE,
    DISCARDED,
    USED,
    COLOR_NAMES,
    build_tables,
    color_name,
    parse_network,
)
from mcflow.tables import ship_position


def fresh_golden(golden_text):
    return build_tables(parse_network(golden_text))


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
        t = fresh_golden(golden_text)
        assert t.edge_colors == [{0}, {1, 2}, {1}, {1, 3}, {2}, {2}, {3}, {3}]
        named = [sorted(color_name(p) for p in cell) for cell in t.edge_colors]
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
        t = fresh_golden(golden_text)
        assert t.edge_residual == [e.capacity for e in t.network.edges]

    def test_golden_bottlenecks_and_color_counts(self, golden_text):
        t = fresh_golden(golden_text)
        assert t.path_bottleneck == [5, 10, 10, 10]
        assert t.path_color_count == [1, 3, 2, 2]

    def test_golden_cuts_and_values(self, golden_text):
        t = fresh_golden(golden_text)
        assert {k: sorted(e.id for e in c.cut_edges) for k, c in t.cuts.items()} == {
            1: [0, 1],
            2: [4, 6],
        }
        assert t.commodity_value == {1: 15, 2: 20}

    def test_golden_audit_clean(self, golden_text):
        assert audit_tables(fresh_golden(golden_text)) == []

    def test_disjoint_counts_all_one(self, disjoint_net):
        t = build_tables(disjoint_net)
        assert t.path_color_count == [1, 1]
        assert t.path_bottleneck == [4, 6]
        assert t.commodity_value == {1: 4, 2: 6}

    def test_invalid_network_rejected(self):
        from mcflow import Commodity, Edge, Network

        bad = Network(
            nodes=("s", "t"),
            edges=(Edge(0, "s", "t", -1),),
            commodities=(Commodity(1, "s", "t"),),
        )
        with pytest.raises(ValueError, match="invalid network"):
            build_tables(bad)

    def test_zero_flow_commodity_contributes_no_paths(self):
        net = parse_network(
            "node s\nnode t\nedge s t 0\nedge t s 1\ncommodity s t\n"
        )
        t = build_tables(net)
        assert t.paths == []
        assert t.commodity_value == {1: 0}
        assert audit_tables(t) == []

    def test_golden_indexes(self, golden_text):
        t = fresh_golden(golden_text)
        assert [(p.commodity, p.ordinal) for p in t.paths] == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert t.edge_paths == [[0], [1, 2], [1], [1, 3], [2], [2], [3], [3]]
        assert t.path_status == [ACTIVE] * 4

    def test_color_ids_are_dense_and_distinct(self, golden_text):
        t = fresh_golden(golden_text)
        assert set().union(*t.edge_colors) == set(range(4))
        assert len({color_name(p) for p in range(4)}) == 4
        assert color_name(len(COLOR_NAMES)) == f"Color{len(COLOR_NAMES) + 1}"

    def test_sum_of_path_amounts_matches_commodity_value(self, golden_text):
        t = fresh_golden(golden_text)
        for com in t.network.commodities:
            total = sum(p.bottleneck for p in t.paths if p.commodity == com.index)
            assert total == t.commodity_value[com.index]


class TestColorCount:
    def test_golden_lookup(self, golden_text):
        t = fresh_golden(golden_text)
        names = [
            {color_name(c) for eid in p.edges for c in t.edge_colors[eid]} for p in t.paths
        ]
        assert names == [
            {"Violet"},
            {"Red", "Green", "Yellow"},
            {"Red", "Green"},
            {"Red", "Yellow"},
        ]
        assert t.path_color_count == [len(n) for n in names]

    def test_unknown_path_rejected(self, golden_text):
        t = fresh_golden(golden_text)
        with pytest.raises(IndexError):
            ship_position(t, len(t.paths), 1)


class TestApplyShipment:
    """Shipments through ship_position, the tables' only mutation."""

    def test_ship_direct_path_no_discards(self, golden_text):
        t = fresh_golden(golden_text)
        assert ship_position(t, 0, 5) == ([], [])
        assert t.edge_residual[0] == 0
        assert t.path_status == [USED, ACTIVE, ACTIVE, ACTIVE]
        # the direct edge carried no other color, so nothing else changed
        assert t.path_color_count == [1, 3, 2, 2]
        assert audit_tables(t) == []

    def test_shipment_cascade_discards_and_strips_colors(self, golden_text):
        t = fresh_golden(golden_text)
        ship_position(t, 0, 5)
        # edges 4, 1, 5 drained; P1.2 rides edge 1 and dies with it, and
        # every path on its edges, itself included, sees one color fewer
        assert ship_position(t, 2, 10) == ([1], [1, 2, 3])
        assert [t.edge_residual[i] for i in (4, 1, 5)] == [0, 0, 0]
        assert t.path_status[1] == DISCARDED
        assert t.path_status[3] == ACTIVE
        # Red leaves every edge it colored; Yellow now alone on edge 3
        assert color_name(1) == "Red"
        assert all(1 not in cell for cell in t.edge_colors)
        assert t.path_color_count[3] == 1
        assert audit_tables(t) == []

    def test_used_path_keeps_its_colors_on_edges(self, golden_text):
        t = fresh_golden(golden_text)
        ship_position(t, 0, 5)
        assert t.edge_colors[0] == {0}

    def test_full_golden_sequence_leaves_no_active_paths(self, golden_text):
        t = fresh_golden(golden_text)
        ship_position(t, 0, 5)
        ship_position(t, 2, 10)
        ship_position(t, 3, 10)
        assert t.path_status == [USED, DISCARDED, USED, USED]
        assert ACTIVE not in t.path_status
        assert audit_tables(t) == []

    def test_wrong_amount_rejected(self, golden_text):
        t = fresh_golden(golden_text)
        with pytest.raises(ValueError, match="bottleneck"):
            ship_position(t, 0, 4)

    def test_zero_amount_rejected(self, golden_text):
        t = fresh_golden(golden_text)
        with pytest.raises(ValueError, match="bottleneck"):
            ship_position(t, 0, 0)

    def test_reshipping_rejected(self, golden_text):
        t = fresh_golden(golden_text)
        ship_position(t, 0, 5)
        with pytest.raises(ValueError, match="not active"):
            ship_position(t, 0, 5)

    def test_shipping_discarded_path_rejected(self, golden_text):
        t = fresh_golden(golden_text)
        ship_position(t, 0, 5)
        ship_position(t, 2, 10)
        with pytest.raises(ValueError, match="not active"):
            ship_position(t, 1, t.path_bottleneck[1])

    def test_used_path_columns_stay_current(self, golden_text):
        # Shipping P2.2 drains edge 3 and discards P1.2: the used and the
        # discarded path's columns are refreshed too, not only active ones.
        t = fresh_golden(golden_text)
        ship_position(t, 3, 10)
        assert t.path_status[1] == DISCARDED
        assert t.path_bottleneck == [5, 0, 10, 0]
        assert t.path_color_count == [1, 2, 1, 1]
        assert audit_tables(t) == []

    def test_live_bottleneck_can_exceed_decomposition_amount(self):
        # The second peeled path only got 2 units of flow, but its edges
        # have more slack than that once residuals start from capacity.
        net = parse_network(
            "node s\nnode a\nnode t\n"
            "edge s a 5\nedge a t 3\nedge a t 4\n"
            "commodity s t\n"
        )
        t = build_tables(net)
        assert [(p.edges, p.bottleneck) for p in t.paths] == [
            ((0, 1), 3),
            ((0, 2), 2),
        ]
        assert t.path_bottleneck == [3, 4]
        ship_position(t, 1, 4)
        assert t.edge_residual == [1, 3, 0]
        assert t.path_status[0] == ACTIVE
        assert t.path_bottleneck[0] == 1
        ship_position(t, 0, 1)
        assert audit_tables(t) == []


class TestAuditTables:
    def test_detects_residual_tampering(self, golden_text):
        t = fresh_golden(golden_text)
        t.edge_residual[0] = 99
        assert any("residual" in line for line in audit_tables(t))

    def test_detects_color_set_tampering(self, golden_text):
        t = fresh_golden(golden_text)
        t.edge_colors[7].add(0)
        assert audit_tables(t) != []

    def test_detects_stale_bottleneck_column(self, golden_text):
        t = fresh_golden(golden_text)
        t.path_bottleneck[2] = 1
        assert any("bottleneck" in line for line in audit_tables(t))

    def test_seeded_random_shipment_sequences_stay_clean(self):
        rng = random.Random(707)
        for _ in range(40):
            net = random_network(rng, max_nodes=6, max_edges=10, commodity_range=(1, 2))
            t = build_tables(net)
            assert audit_tables(t) == []
            while True:
                active = [p for p, status in enumerate(t.path_status) if status == ACTIVE]
                if not active:
                    break
                p = rng.choice(active)
                ship_position(t, p, t.path_bottleneck[p])
                assert audit_tables(t) == []

    @settings(max_examples=40)
    @given(networks(max_nodes=6, max_edges=10, max_commodities=2))
    def test_built_tables_always_audit_clean(self, net):
        t = build_tables(net)
        assert audit_tables(t) == []
        assert t.path_status == [ACTIVE] * len(t.paths)
