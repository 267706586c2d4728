"""Flow table construction, shipment bookkeeping, and audit invariants."""

import random

import pytest
from hypothesis import given, settings

from helpers import networks, random_network
from mcflow import (
    ACTIVE,
    DISCARDED,
    USED,
    ColoredPath,
    apply_shipment,
    audit_tables,
    build_tables,
    parse_network,
)


def fresh_golden(golden_text):
    return build_tables(parse_network(golden_text))


class TestBuildTables:
    def test_golden_paths_and_colors(self, golden_text):
        t = fresh_golden(golden_text)
        assert [(p.label, p.edges, p.color.name) for p in t.paths] == [
            ("P1.1", (0,), "Violet"),
            ("P1.2", (1, 2, 3), "Red"),
            ("P2.1", (4, 1, 5), "Green"),
            ("P2.2", (6, 3, 7), "Yellow"),
        ]

    def test_golden_edge_colors(self, golden_text):
        t = fresh_golden(golden_text)
        name_of = {p.color.id: p.color.name for p in t.paths}
        named = [sorted(name_of[c] for c in cell) for cell in t.edge_colors]
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

    def test_golden_path_record_holds_original_capacities(self, golden_text):
        t = fresh_golden(golden_text)
        assert t.path_record == [
            ((0, 5),),
            ((1, 10), (2, 10), (3, 10)),
            ((4, 10), (1, 10), (5, 10)),
            ((6, 10), (3, 10), (7, 10)),
        ]

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
        assert t.path_position == {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
        assert t.edge_paths == [[0], [1, 2], [1], [1, 3], [2], [2], [3], [3]]
        assert [t.index_of(p) for p in t.paths] == [0, 1, 2, 3]

    def test_color_ids_are_dense_and_distinct(self, golden_text):
        t = fresh_golden(golden_text)
        assert [p.color.id for p in t.paths] == list(range(1, 5))
        assert len({p.color.name for p in t.paths}) == 4

    def test_sum_of_path_amounts_matches_commodity_value(self, golden_text):
        t = fresh_golden(golden_text)
        for com in t.network.commodities:
            total = sum(p.bottleneck for p in t.paths if p.commodity == com.index)
            assert total == t.commodity_value[com.index]


class TestColorCount:
    def test_golden_lookup(self, golden_text):
        t = fresh_golden(golden_text)
        assert [t.path_color_count[t.index_of(p)] for p in t.paths] == [1, 3, 2, 2]

    def test_unknown_path_rejected(self, golden_text):
        t = fresh_golden(golden_text)
        stranger = ColoredPath(commodity=3, ordinal=1, edges=(0,), bottleneck=1)
        with pytest.raises(ValueError, match="not in tables"):
            t.index_of(stranger)


class TestApplyShipment:
    def test_ship_direct_path_no_discards(self, golden_text):
        t = fresh_golden(golden_text)
        apply_shipment(t, t.paths[0], 5)
        assert t.edge_residual[0] == 0
        assert t.paths[0].status == USED
        assert [p.status for p in t.paths[1:]] == [ACTIVE] * 3
        # the direct edge carried no other color, so nothing else changed
        assert t.path_color_count == [1, 3, 2, 2]
        assert audit_tables(t) == []

    def test_shipment_cascade_discards_and_strips_colors(self, golden_text):
        t = fresh_golden(golden_text)
        apply_shipment(t, t.paths[0], 5)
        apply_shipment(t, t.paths[2], 10)
        # edges 4, 1, 5 drained; P1.2 rides edge 1 and dies with it
        assert [t.edge_residual[i] for i in (4, 1, 5)] == [0, 0, 0]
        assert t.paths[1].status == DISCARDED
        assert t.paths[3].status == ACTIVE
        # Red leaves every edge it colored; Yellow now alone on edge 3
        red = t.paths[1].color.id
        assert all(red not in cell for cell in t.edge_colors)
        assert t.path_color_count[3] == 1
        assert audit_tables(t) == []

    def test_used_path_keeps_its_colors_on_edges(self, golden_text):
        t = fresh_golden(golden_text)
        apply_shipment(t, t.paths[0], 5)
        assert t.paths[0].color.id in t.edge_colors[0]

    def test_full_golden_sequence_leaves_no_active_paths(self, golden_text):
        t = fresh_golden(golden_text)
        apply_shipment(t, t.paths[0], 5)
        apply_shipment(t, t.paths[2], 10)
        apply_shipment(t, t.paths[3], 10)
        assert [p.status for p in t.paths] == [USED, DISCARDED, USED, USED]
        assert not any(p.status == ACTIVE for p in t.paths)
        assert audit_tables(t) == []

    def test_wrong_amount_rejected(self, golden_text):
        t = fresh_golden(golden_text)
        with pytest.raises(ValueError, match="bottleneck"):
            apply_shipment(t, t.paths[0], 4)

    def test_zero_amount_rejected(self, golden_text):
        t = fresh_golden(golden_text)
        with pytest.raises(ValueError, match="bottleneck"):
            apply_shipment(t, t.paths[0], 0)

    def test_reshipping_rejected(self, golden_text):
        t = fresh_golden(golden_text)
        apply_shipment(t, t.paths[0], 5)
        with pytest.raises(ValueError, match="not active"):
            apply_shipment(t, t.paths[0], 5)

    def test_shipping_discarded_path_rejected(self, golden_text):
        t = fresh_golden(golden_text)
        apply_shipment(t, t.paths[0], 5)
        apply_shipment(t, t.paths[2], 10)
        with pytest.raises(ValueError, match="not active"):
            apply_shipment(t, t.paths[1], t.path_bottleneck[1])

    def test_used_path_columns_stay_current(self, golden_text):
        # Shipping P2.2 drains edge 3 and discards P1.2: the used and the
        # discarded path's columns are refreshed too, not only active ones.
        t = fresh_golden(golden_text)
        apply_shipment(t, t.paths[3], 10)
        assert t.paths[1].status == DISCARDED
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
        apply_shipment(t, t.paths[1], 4)
        assert t.edge_residual == [1, 3, 0]
        assert t.paths[0].status == ACTIVE
        assert t.path_bottleneck[0] == 1
        apply_shipment(t, t.paths[0], 1)
        assert audit_tables(t) == []


class TestAuditTables:
    def test_detects_residual_tampering(self, golden_text):
        t = fresh_golden(golden_text)
        t.edge_residual[0] = 99
        assert any("residual" in line for line in audit_tables(t))

    def test_detects_color_set_tampering(self, golden_text):
        t = fresh_golden(golden_text)
        t.edge_colors[7].add(t.paths[0].color.id)
        assert audit_tables(t) != []

    def test_detects_stale_bottleneck_column(self, golden_text):
        t = fresh_golden(golden_text)
        t.path_bottleneck[2] = 1
        assert any("bottleneck" in line for line in audit_tables(t))

    def test_detects_reused_color(self, golden_text):
        t = fresh_golden(golden_text)
        t.paths[1].color = t.paths[0].color
        assert any("reused" in line for line in audit_tables(t))

    def test_seeded_random_shipment_sequences_stay_clean(self):
        rng = random.Random(707)
        for _ in range(40):
            net = random_network(rng, max_nodes=6, max_edges=10, commodity_range=(1, 2))
            t = build_tables(net)
            assert audit_tables(t) == []
            while True:
                active = [p for p in t.paths if p.status == ACTIVE]
                if not active:
                    break
                p = rng.choice(active)
                apply_shipment(t, p, t.path_bottleneck[t.index_of(p)])
                assert audit_tables(t) == []

    @settings(max_examples=40)
    @given(networks(max_nodes=6, max_edges=10, max_commodities=2))
    def test_built_tables_always_audit_clean(self, net):
        t = build_tables(net)
        assert audit_tables(t) == []
        for p in t.paths:
            assert p.status == ACTIVE and p.color is not None
