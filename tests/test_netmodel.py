"""Parsing, validation, rendering round-trips, and DOT export."""

import dataclasses
import random
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    LONG_TOKEN_CASES,
    corrupt_assignment,
    echoed,
    misreference_assignment,
    multicommodity_networks,
    networks,
    random_network,
    reference_arcs,
    reference_export_dot,
    reference_parse_network,
    regular_network,
    render_network,
)
from mcflow import (
    Assignment,
    Commodity,
    Edge,
    Network,
    NetworkParseError,
    build_tables,
    export_dot,
    greedy_solve,
    parse_network,
    render_path,
)
from mcflow import netmodel

# Legal and illegal node names and capacity tokens for near-valid text.
_NAMES = ["a", "b", "c", "a\x00", "b\x7f", "\u200b"]
_CAPACITIES = ["0", "7", "12", "-1", "+5", "1_0", "\u0665", "\u0663\u0662"]

# Each interpreter str(int) digit limit (0: none) with the most digits a
# capacity may have under it, and the digit counts on either side of that
# count, of the limit and of the fixed 4000.
_DIGIT_LIMITS = [(0, 4000), (640, 340), (1000, 700), (sys.int_info.default_max_str_digits, 4000)]
_LENGTH_CASES = [
    (limit, most, digits)
    for limit, most in _DIGIT_LIMITS
    for digits in sorted({most, most + 1, 4000, 4001} | ({limit, limit + 1} if limit else set()))
]


@st.composite
def odd_network_texts(draw):
    names = draw(st.lists(st.sampled_from(_NAMES), min_size=2, max_size=4, unique=True))
    lines = [f"node {name}" for name in names]
    for _ in range(draw(st.integers(1, 3))):
        tail, head = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        lines.append(f"edge {tail} {head} {draw(st.sampled_from(_CAPACITIES))}")
    source, sink = draw(st.sampled_from(names)), draw(st.sampled_from(names))
    lines.append(f"commodity {source} {sink}")
    return "\n".join(lines) + "\n"


class TestParse:
    def test_smallest_legal_network(self, single_edge_text):
        net = parse_network(single_edge_text)
        assert net.nodes == ("s", "t")
        assert net.edges == (Edge(0, "s", "t", 5),)
        assert net.commodities == (Commodity(1, "s", "t"),)

    def test_golden_network_shape(self, golden_net):
        assert len(golden_net.nodes) == 6
        assert len(golden_net.edges) == 8
        assert [e.id for e in golden_net.edges] == list(range(8))
        assert golden_net.edges[0] == Edge(0, "s1", "t1", 5)
        assert golden_net.edges[4] == Edge(4, "s2", "s1", 10)
        assert golden_net.commodities == (
            Commodity(1, "s1", "t1"),
            Commodity(2, "s2", "t2"),
        )

    def test_comments_and_blank_lines_ignored(self):
        net = parse_network("# header\n\nnode s\nnode t\n# middle\nedge s t 1\n\ncommodity s t\n")
        assert len(net.edges) == 1

    def test_zero_capacity_edge_is_legal(self):
        net = parse_network("node s\nnode t\nedge s t 0\ncommodity s t\n")
        assert net.edges[0].capacity == 0

    def test_parallel_edges_are_legal(self):
        net = parse_network(
            "node s\nnode t\nedge s t 1\nedge s t 2\ncommodity s t\n"
        )
        assert [e.capacity for e in net.edges] == [1, 2]

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("node s\nnode t\nlink s t 3\ncommodity s t\n", 3, "unknown directive"),
            ("node s\nnode s\n", 2, "duplicate node"),
            ("node s\nedge s t 3\n", 2, "not declared"),
            ("node s\nnode t\nedge s t -1\n", 3, "negative capacity"),
            ("node s\nnode t\nedge s t x\n", 3, "not an integer"),
            ("node s\nnode t\nedge s t 1.5\n", 3, "not an integer"),
            ("node s\nedge s s 3\n", 2, "self-loop"),
            ("node s\nnode t\nedge s t 1\ncommodity s q\n", 4, "not declared"),
            ("node s\nnode t\nedge s t 1\ncommodity s s\n", 4, "source equals sink"),
            ("node s\nnode t\nedge s t 1\n", 3, "no commodities"),
            ("node s\nnode t\ncommodity s t\n", 3, "no edges"),
            ("node\n", 1, "expects 1 argument"),
            ("node s\nnode t\nedge s t\n", 3, "expects 3 arguments"),
            ("node s\nnode a\x00\n", 2, "unprintable"),
            ("node s\nnode t\nedge s t 1_0\n", 3, "not an integer"),
            ("node s\nnode t\nedge s t \u0665\n", 3, "not an integer"),
            ("node s\nnode t\nedge s t +5\n", 3, "not an integer"),
            ("node s\nnode t\nedge s t -07\n", 3, "negative capacity"),
            # A line with several faults reports the first in check order.
            ("node s\nnode t\nedge q q x\n", 3, "endpoint 'q' not declared"),
            ("node s\nnode t\nedge s s x\n", 3, "not an integer"),
            ("node s\nnode t\nedge s s -1\n", 3, "negative capacity"),
            ("node s\nnode t\nedge s s " + "9" * 4001 + "\n", 3, "more than 4000 digits"),
            ("node s\nnode t\ncommodity q q\n", 3, "not declared"),
            ("node a\x00 b\n", 1, "expects 1 arguments"),
            # The first undeclared end is named; the capacity is checked
            # before the self-loop.
            ("node s\nnode t\nedge s q x\n", 3, "edge endpoint 'q' not declared"),
            ("node s\nnode t\nedge p q 1\n", 3, "edge endpoint 'p' not declared"),
            ("node s\nnode t\ncommodity q s\n", 3, "commodity endpoint 'q' not declared"),
            ("node s\nnode t\nedge s s 1_0\n", 3, "not an integer"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line, fragment):
        with pytest.raises(NetworkParseError) as excinfo:
            parse_network(text)
        assert excinfo.value.line == line
        assert fragment in str(excinfo.value)

    def test_capacity_has_at_most_4000_digits(self):
        head = "node s\nnode t\nedge s t "
        net = parse_network(head + "9" * 4000 + "\ncommodity s t\n")
        assert net.edges[0].capacity == 10**4000 - 1
        with pytest.raises(NetworkParseError) as excinfo:
            parse_network(head + "1" + "0" * 4000 + "\ncommodity s t\n")
        assert str(excinfo.value) == "line 3: capacity has more than 4000 digits"

    @pytest.mark.parametrize("limit", [640, 1000])
    def test_lowered_int_limit_keeps_300_digits_of_headroom(self, limit):
        # A total of capacities must still print under the lowered limit.
        head = "node s\nnode t\nedge s t "
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            assert parse_network(head + "9" * (limit - 300) + "\ncommodity s t\n")
            with pytest.raises(NetworkParseError) as excinfo:
                parse_network(head + "9" * (limit - 299) + "\ncommodity s t\n")
        finally:
            sys.set_int_max_str_digits(saved)
        assert str(excinfo.value) == f"line 3: capacity has more than {limit - 300} digits"

    @pytest.mark.parametrize("unlimited", ["limit 0", "no limit function"])
    def test_no_int_limit_keeps_4000_digits(self, monkeypatch, unlimited):
        head = "node s\nnode t\nedge s t "
        if unlimited == "limit 0":
            monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        else:
            monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert parse_network(head + "9" * 4000 + "\ncommodity s t\n")
        with pytest.raises(NetworkParseError, match="more than 4000 digits"):
            parse_network(head + "9" * 4001 + "\ncommodity s t\n")

    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize("limit, most, digits", _LENGTH_CASES)
    def test_capacity_length_messages(self, limit, most, digits, sign):
        # One length test decides a capacity's fate, whatever int() could take.
        capacity = sign + "9" * digits
        text = f"node s\nnode t\nedge s t {capacity}\ncommodity s t\n"
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            outcome = _outcome(parse_network, text)
        finally:
            sys.set_int_max_str_digits(saved)
        if sign:
            assert outcome == (3, f"negative capacity {echoed(capacity, quoted=False)}")
        elif digits > most:
            assert outcome == (3, f"capacity has more than {most} digits")
        else:
            assert outcome.edges[0].capacity == 10**digits - 1

    def test_node_after_use_is_fine_if_declared_before(self):
        # Declaration must precede use; later extra nodes are no problem.
        net = parse_network(
            "node s\nnode t\nedge s t 1\nnode z\ncommodity s t\n"
        )
        assert net.nodes == ("s", "t", "z")


class TestRoundTrip:
    def test_golden_round_trip(self, golden_net):
        assert parse_network(render_network(golden_net)) == golden_net

    @given(networks())
    def test_render_parse_round_trip(self, net):
        assert parse_network(render_network(net)) == net

    @given(networks())
    def test_parsed_networks_validate_clean(self, net):
        # The dense numbering that edge lookups and Network.commodity rely on.
        parsed = parse_network(render_network(net))
        assert [e.id for e in parsed.edges] == list(range(len(parsed.edges)))
        assert [parsed.commodity(c.index) for c in parsed.commodities] == list(net.commodities)

    @given(odd_network_texts())
    def test_accepted_text_validates_clean(self, text):
        # Parsing raises NetworkParseError or returns a Network; the
        # construction check behind it never fires on accepted text.
        try:
            parse_network(text)
        except NetworkParseError:
            pass


def _outcome(parse, text):
    """What a parser makes of text: the network, or the error's line and reason."""
    try:
        return parse(text)
    except NetworkParseError as error:
        return (error.line, error.reason)


# Replacement tokens for the mutations below.
_ODD_CAPACITIES = ["+5", "1_0", "-0", "-", "\u0665", "007", "1.5", "\u00b2", "-" + "9" * 4001]
_ODD_CAPACITIES += ["9" * 4000, "9" * 4001, "0" * 4001]
_ODD_NAMES = ["ghost", "a\x00", "b\x7f", "\u200b", "\u00e9", "#x", "x#"]
_LINE_BREAKS = ["\n", "\r\n", "\r", "\x85", "\u2028", "\x0b", "\x1c"]


def _mutate(rng, lines):
    """Apply one random mutation to a list of network lines, in place."""
    at = rng.randrange(len(lines))
    kind = rng.randrange(12)
    if kind == 0:  # tabs and runs of blanks between tokens
        lines[at] = lines[at].replace(" ", rng.choice(["\t", " \t ", "   "]))
    elif kind == 1:  # leading and trailing blanks
        lines[at] = rng.choice([" ", "\t", "  "]) + lines[at] + rng.choice([" ", "\t", ""])
    elif kind == 2:  # comment and blank lines
        lines.insert(at, rng.choice(["# note", "  #edge a b 1", "", "   ", "#"]))
    elif kind == 3:  # "#" at either end of a token
        parts = lines[at].split(" ")
        spot = rng.randrange(len(parts))
        parts[spot] = rng.choice(["#", ""]) + parts[spot] + rng.choice(["", "#"])
        lines[at] = " ".join(parts)
    elif kind == 4:  # odd capacities
        edges = [i for i, line in enumerate(lines) if line.startswith("edge ")]
        if edges:
            i = rng.choice(edges)
            lines[i] = lines[i].rsplit(" ", 1)[0] + " " + rng.choice(_ODD_CAPACITIES)
    elif kind == 5:  # a duplicate node declaration
        nodes = [line for line in lines if line.startswith("node ")]
        if nodes:
            lines.insert(at, rng.choice(nodes))
    elif kind == 6:  # an undeclared, unprintable or otherwise odd name
        parts = lines[at].split(" ")
        parts[rng.randrange(1, len(parts)) if len(parts) > 1 else 0] = rng.choice(_ODD_NAMES)
        lines[at] = " ".join(parts)
    elif kind == 7:  # wrong arity
        parts = lines[at].split(" ")
        if rng.random() < 0.5:
            del parts[rng.randrange(len(parts))]
        else:
            parts.insert(rng.randrange(len(parts) + 1), "7")
        lines[at] = " ".join(parts)
    elif kind == 8:  # a node used before its declaration
        j = rng.randrange(len(lines))
        lines[at], lines[j] = lines[j], lines[at]
    elif kind == 9:  # self-loops and source equals sink
        parts = lines[at].split(" ")
        if len(parts) >= 3:
            parts[2] = parts[1]
        lines[at] = " ".join(parts)
    elif kind == 10:  # unknown directives
        lines[at] = rng.choice(["Edge", "link", "nodes", "\ufeffnode"]) + lines[at][4:]
    else:  # no edges or no commodities left
        directive = rng.choice(["edge ", "commodity "])
        lines[:] = [line for line in lines if not line.startswith(directive)] or [""]


def _mutated_texts(rng, count):
    for _ in range(count):
        if rng.random() < 0.2:
            net = regular_network(rng, rng.randint(3, 8), 2, rng.randint(1, 3))
        else:
            net = random_network(rng, max_nodes=6, max_edges=8, commodity_range=(1, 3))
        lines = render_network(net).splitlines()
        for _ in range(rng.randint(0, 3)):
            _mutate(rng, lines)
        text = "".join(line + rng.choice(_LINE_BREAKS) for line in lines)
        yield ("\ufeff" if rng.random() < 0.05 else "") + text


class TestLongTokensAreClipped:
    """A diagnostic echoes at most 64 characters of a token, then its length."""

    @pytest.mark.parametrize("text, line, reason", LONG_TOKEN_CASES)
    def test_reason(self, text, line, reason):
        assert _outcome(parse_network, text) == (line, reason)
        assert _outcome(reference_parse_network, text) == (line, reason)
        assert len(reason.encode("utf-8")) < 140


class TestParseMatchesReference:
    """parse_network gives what the line-by-line reference parser gives:
    an equal Network for accepted text, the same line and reason otherwise."""

    def test_mutated_texts(self):
        rejected = 0
        for text in _mutated_texts(random.Random(2121), 4000):
            expected = _outcome(reference_parse_network, text)
            assert _outcome(parse_network, text) == expected, repr(text)
            rejected += isinstance(expected, tuple)
        assert 1000 < rejected < 3000  # both kinds of outcome are well covered

    @pytest.mark.parametrize("digits", [339, 340, 341, 639, 640, 641, 4000, 4001])
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_lowered_int_limit(self, digits, sign):
        text = f"node s\nnode t\nedge s t {sign}{'7' * digits}\ncommodity s t\n"
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            expected = _outcome(reference_parse_network, text)
            assert _outcome(parse_network, text) == expected
        finally:
            sys.set_int_max_str_digits(saved)

    @given(odd_network_texts())
    def test_odd_texts(self, text):
        assert _outcome(parse_network, text) == _outcome(reference_parse_network, text)

    def test_arcs_match_reference(self):
        rng = random.Random(31)
        nets = [regular_network(rng, 40, 3, 4) for _ in range(5)]
        nets += [random_network(rng, 12, 40, commodity_range=(1, 3)) for _ in range(40)]
        for net in nets:
            assert parse_network(render_network(net)).arcs == reference_arcs(net)


class TestParsedEdgeContract:
    """A parsed Edge is the same frozen, slotted dataclass instance that
    Edge(...) builds."""

    def test_equal_to_constructed_edge(self, golden_net):
        for edge in golden_net.edges:
            built = Edge(edge.id, edge.tail, edge.head, edge.capacity)
            assert edge == built and hash(edge) == hash(built) and repr(edge) == repr(built)
            assert type(edge) is Edge and not isinstance(edge, tuple)
            assert not hasattr(edge, "__dict__")

    def test_frozen(self, golden_net):
        edge = golden_net.edges[0]
        for field in ("id", "tail", "head", "capacity"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(edge, field, 1)
        assert edge == Edge(0, "s1", "t1", 5)

    def test_fields_and_replace(self, golden_net):
        edge = golden_net.edges[4]
        assert [f.name for f in dataclasses.fields(edge)] == ["id", "tail", "head", "capacity"]
        assert dataclasses.astuple(edge) == (4, "s2", "s1", 10)
        assert dataclasses.replace(edge, capacity=3) == Edge(4, "s2", "s1", 3)
        assert edge.capacity == 10


class TestParsedNamesAreShared:
    """Every edge end and commodity end of a parsed network is the declared
    name object itself, so the network holds each name once."""

    @staticmethod
    def assert_shared(net):
        declared = {name: name for name in net.nodes}
        for edge in net.edges:
            assert edge.tail is declared[edge.tail] and edge.head is declared[edge.head]
        for com in net.commodities:
            assert com.source is declared[com.source] and com.sink is declared[com.sink]

    def test_golden(self, golden_net):
        self.assert_shared(golden_net)

    def test_seeded_corpus(self):
        rng = random.Random(25)
        nets = [regular_network(rng, 50, 3, 4) for _ in range(5)]
        nets += [random_network(rng, 12, 40, commodity_range=(1, 3)) for _ in range(40)]
        for net in nets:
            self.assert_shared(parse_network(render_network(net)))

    def test_parsed_network_size(self):
        # About 280 KB; 535 KB when every edge end kept its own string.
        text = render_network(regular_network(random.Random(1), 600, 4, 16))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            net = parse_network(text)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(net.edges) == 2400 and held < 400_000


class TestSoundTextIsNotWorded:
    """A sound line passes the cheap tests only: text that parses never
    builds a NetworkParseError."""

    def test_regular_corpus(self, monkeypatch):
        built = []

        class Counting(NetworkParseError):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(netmodel, "NetworkParseError", Counting)
        rng = random.Random(77)
        for _ in range(30):
            net = regular_network(rng, rng.randint(3, 60), rng.randint(1, 4), rng.randint(1, 6))
            text = "# seeded\n\n" + render_network(net).replace("\n", " \r\n\t", 3)
            assert parse_network(text) == net
        assert built == []
        with pytest.raises(Counting):
            parse_network("node s\nnode t\nedge s t -1\ncommodity s t\n")
        assert len(built) == 1  # the patch is what parse_network builds


def _problems(*args) -> list[str]:
    """The messages Network(*args) raises with, one per violated invariant."""
    with pytest.raises(ValueError) as excinfo:
        Network(*args)
    message = str(excinfo.value)
    assert message.startswith("invalid network: ")
    return message.removeprefix("invalid network: ").split("; ")


class TestValidate:
    def test_golden_is_clean(self, golden_net):
        assert Network(golden_net.nodes, golden_net.edges, golden_net.commodities) == golden_net

    def test_commodity_source_equals_sink(self):
        problems = _problems(
            ("s", "t"),
            (Edge(0, "s", "t", 1),),
            (Commodity(1, "s", "s"),),
        )
        assert len(problems) == 1
        assert "source equals sink" in problems[0]

    def test_undeclared_endpoint(self):
        problems = _problems(("s",), (Edge(0, "s", "ghost", 1),), (Commodity(1, "s", "ghost"),))
        assert any("edge 0 (s->ghost): endpoint 'ghost' not declared" in p for p in problems)
        assert any("commodity 1: endpoint 'ghost' not declared" in p for p in problems)

    def test_negative_capacity_and_self_loop(self):
        problems = _problems(
            ("s", "t"),
            (Edge(0, "s", "t", -2), Edge(1, "t", "t", 1)),
            (Commodity(1, "s", "t"),),
        )
        assert any("negative capacity" in p for p in problems)
        assert any("self-loop" in p for p in problems)

    @pytest.mark.parametrize("capacity", [1.5, "3", True])
    def test_non_integer_capacity(self, capacity):
        problems = _problems(
            ("s", "t"),
            (Edge(0, "s", "t", capacity),),
            (Commodity(1, "s", "t"),),
        )
        assert problems == [f"edge 0 (s->t): capacity {capacity!r} is not an integer"]

    def test_non_dense_edge_ids(self):
        problems = _problems(
            ("s", "t"),
            (Edge(1, "s", "t", 1),),
            (Commodity(1, "s", "t"),),
        )
        assert any("not dense" in p for p in problems)

    def test_non_dense_commodity_indices(self):
        problems = _problems(
            ("s", "t"),
            (Edge(0, "s", "t", 1),),
            (Commodity(2, "s", "t"),),
        )
        assert problems == ["commodity 2: index not dense at position 0"]

    def test_duplicate_and_whitespace_node_names(self):
        problems = _problems(
            ("s", "s", "a b", "a\x00", ""),
            (Edge(0, "s", "s", 1),),
            (Commodity(1, "s", "s"),),
        )
        assert any("duplicate node name" in p for p in problems)
        assert any("'a b' contains whitespace" in p for p in problems)
        assert any("'a\\x00' contains whitespace or unprintable" in p for p in problems)
        assert "empty node name" in problems

    def test_empty_network_reports_missing_pieces(self):
        problems = _problems((), (), ())
        assert any("no edges" in p for p in problems)
        assert any("no commodities" in p for p in problems)


class TestPathHelpers:
    def test_path_nodes_golden(self, golden_net):
        assert render_path(golden_net, [4, 1, 5]) == "s2->s1->a->t2"
        assert render_path(golden_net, [6, 3, 7]) == "s2->b->t1->t2"

    def test_path_nodes_rejects_gaps(self, golden_net):
        with pytest.raises(ValueError, match="edge 5 does not continue the path at 't1'"):
            render_path(golden_net, [0, 5])

    def test_empty_path(self, golden_net):
        assert render_path(golden_net, []) == ""


def _assignment(edge_flow):
    return Assignment([], [], edge_flow, {}, 0)


class TestExportDot:
    def test_plain_export_has_one_line_per_edge(self, golden_net):
        dot = export_dot(golden_net)
        edge_lines = [l for l in dot.splitlines() if "->" in l and "//" not in l]
        assert len(edge_lines) == 8
        assert '"s1" -> "t1" [label="5"];' in dot

    def test_assignment_labels_flow_over_capacity(self, golden_net):
        dot = export_dot(golden_net, _assignment({(1, 0): 5}))
        assert 'label="5/5"' in dot
        assert 'label="0/10"' in dot

    def test_all_zero_assignment_single_edge(self, single_edge_text):
        net = parse_network(single_edge_text)
        dot = export_dot(net, _assignment({}))
        assert 'label="0/5"' in dot

    def test_commodity_style_classes_differ(self, golden_net):
        dot = export_dot(golden_net, _assignment({(1, 0): 5, (2, 6): 10}))
        lines = dot.splitlines()
        line_e0 = next(l for l in lines if l.startswith('  "s1" -> "t1"'))
        line_e6 = next(l for l in lines if l.startswith('  "s2" -> "b"'))
        color_e0 = line_e0.split('color="')[1].split('"')[0]
        color_e6 = line_e6.split('color="')[1].split('"')[0]
        assert color_e0 != color_e6

    def test_shared_edge_lists_both_commodity_styles(self, golden_net):
        dot = export_dot(golden_net, _assignment({(1, 1): 3, (2, 1): 4}))
        line = next(l for l in dot.splitlines() if l.startswith('  "s1" -> "a"'))
        assert ":" in line.split('color="')[1].split('"')[0]

    def test_unknown_edge_rejected(self, golden_net):
        with pytest.raises(ValueError, match="unknown edge"):
            export_dot(golden_net, _assignment({(1, 99): 1}))

    def test_unknown_commodity_rejected(self, golden_net):
        with pytest.raises(ValueError, match="unknown commodity"):
            export_dot(golden_net, _assignment({(9, 0): 1}))

    def test_deterministic(self, golden_net):
        assert export_dot(golden_net) == export_dot(golden_net)

    def test_matches_reference_on_seeded_assignments(self):
        # Greedy results and corrupted copies of them, with zero and
        # negative entries among the faults.
        rng = random.Random(1331)
        for net in multicommodity_networks(rng, 120, min_commodities=2):
            clean = greedy_solve(build_tables(net))
            for a in [clean] + [corrupt_assignment(net, clean, rng) for _ in range(10)]:
                assert export_dot(net, a) == reference_export_dot(net, a)

    def test_bad_references_raise_like_reference(self):
        # The reference checks references on its own, so a fault in
        # export_dot's check shows here: same first bad entry, same message.
        rng = random.Random(1332)
        raised = 0
        for net in multicommodity_networks(rng, 60, min_commodities=2):
            clean = greedy_solve(build_tables(net))
            for _ in range(10):
                a = misreference_assignment(net, clean, rng)
                outcomes = []
                for export in (export_dot, reference_export_dot):
                    try:
                        outcomes.append(export(net, a))
                    except ValueError as error:
                        outcomes.append(("ValueError", str(error)))
                assert outcomes[0] == outcomes[1]
                raised += isinstance(outcomes[0], tuple)
        assert raised >= 200
