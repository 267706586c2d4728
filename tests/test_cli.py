"""Command-line surface: output formats, exit codes, and reproducibility."""

import io
import os
import random
import re
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mcflow.cli
from helpers import LONG_TOKEN_CASES, random_network, regular_network, render_network
from mcflow import (
    build_tables,
    greedy_solve,
    validate_assignment,
)
from mcflow.cli import run

DATA = Path(__file__).parent / "data"
GOLDEN = str(DATA / "two_commodity.net")
DISJOINT = str(DATA / "disjoint.net")
SINGLE = str(DATA / "single_edge.net")
BAD = str(DATA / "bad_negative.net")
GOLDEN_BYTES = (DATA / "two_commodity.net").read_bytes()


CRITERION_5_044 = (
    "node v0\nnode v1\n"
    "edge v1 v0 3\nedge v0 v1 3\nedge v1 v0 8\nedge v1 v0 0\n"
    "edge v1 v0 4\nedge v0 v1 9\nedge v0 v1 7\nedge v0 v1 9\n"
    "commodity v1 v0\ncommodity v0 v1\ncommodity v0 v1\n"
)

# The byte contract's seeded input r04: the search proves its optimum in
# 629 nodes.
CONTRACT_R04 = (
    "node v0\nnode v1\nnode v2\n"
    "edge v0 v1 8\nedge v1 v2 6\nedge v2 v1 1\nedge v0 v1 6\nedge v0 v1 6\n"
    "edge v0 v1 6\nedge v1 v0 5\nedge v0 v2 9\nedge v0 v2 0\n"
    "commodity v2 v1\ncommodity v0 v2\ncommodity v0 v1\n"
)


def _module_env():
    """The environment for a child `python -m mcflow`: this package first."""
    src = str(Path(mcflow.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_human_ok(self, capsys):
        code, out, err = invoke(capsys, ["validate", GOLDEN])
        assert (code, out, err) == (0, "ok\n", "")

    def test_structured_ok(self, capsys):
        code, out, _ = invoke(capsys, ["validate", GOLDEN, "--format", "structured"])
        assert code == 0
        assert out == "violations\t0\n"


class TestMaxflow:
    def test_structured_commodity_1(self, capsys):
        code, out, _ = invoke(
            capsys, ["maxflow", GOLDEN, "--commodity", "1", "--format", "structured"]
        )
        assert code == 0
        assert out == (
            "commodity\t1\n"
            "source\ts1\n"
            "sink\tt1\n"
            "value\t15\n"
            "cut_capacity\t15\n"
            "cut_node\ts1\n"
            "cut_edge\t0\ts1\tt1\t5\n"
            "cut_edge\t1\ts1\ta\t10\n"
            "edge_flow\t0\t5\n"
            "edge_flow\t1\t10\n"
            "edge_flow\t2\t10\n"
            "edge_flow\t3\t10\n"
            "edge_flow\t4\t0\n"
            "edge_flow\t5\t0\n"
            "edge_flow\t6\t0\n"
            "edge_flow\t7\t0\n"
            "path\tP1.1\t5\ts1->t1\n"
            "path\tP1.2\t10\ts1->a->b->t1\n"
        )

    def test_structured_commodity_2(self, capsys):
        code, out, _ = invoke(
            capsys, ["maxflow", GOLDEN, "--commodity", "2", "--format", "structured"]
        )
        assert code == 0
        lines = out.splitlines()
        assert "value\t20" in lines
        assert "cut_capacity\t20" in lines
        assert "cut_node\ts2" in lines
        assert "cut_edge\t4\ts2\ts1\t10" in lines
        assert "cut_edge\t6\ts2\tb\t10" in lines
        assert "path\tP2.1\t10\ts2->s1->a->t2" in lines
        assert "path\tP2.2\t10\ts2->b->t1->t2" in lines

    def test_human_output(self, capsys):
        code, out, _ = invoke(capsys, ["maxflow", GOLDEN, "--commodity", "1"])
        assert code == 0
        assert "commodity 1: s1 -> t1" in out
        assert "max flow value: 15" in out
        assert "min cut: capacity 15, source side {s1}" in out
        assert "cut edge e0 s1->t1 capacity 5" in out
        assert "e0 s1->t1: 5/5" in out
        assert "P1.1: s1->t1 amount 5" in out

    def test_unknown_commodity_is_usage_error(self, capsys):
        # -1 must not index the last commodity.
        for index in ("9", "0", "-1"):
            code, out, err = invoke(capsys, ["maxflow", GOLDEN, f"--commodity={index}"])
            assert (code, out) == (2, "")
            assert err == f"error: no commodity with index {index} (network declares 2)\n"


class TestTables:
    def test_structured_golden(self, capsys):
        code, out, _ = invoke(capsys, ["tables", GOLDEN, "--format", "structured"])
        assert code == 0
        assert out == (
            "edge_color\t0\tViolet\n"
            "edge_color\t1\tRed\n"
            "edge_color\t1\tGreen\n"
            "edge_color\t2\tRed\n"
            "edge_color\t3\tRed\n"
            "edge_color\t3\tYellow\n"
            "edge_color\t4\tGreen\n"
            "edge_color\t5\tGreen\n"
            "edge_color\t6\tYellow\n"
            "edge_color\t7\tYellow\n"
            "edge_residual\t0\t5\n"
            "edge_residual\t1\t10\n"
            "edge_residual\t2\t10\n"
            "edge_residual\t3\t10\n"
            "edge_residual\t4\t10\n"
            "edge_residual\t5\t10\n"
            "edge_residual\t6\t10\n"
            "edge_residual\t7\t10\n"
            "path_edge\tP1.1\t0\t5\n"
            "path_edge\tP1.2\t1\t10\n"
            "path_edge\tP1.2\t2\t10\n"
            "path_edge\tP1.2\t3\t10\n"
            "path_edge\tP2.1\t4\t10\n"
            "path_edge\tP2.1\t1\t10\n"
            "path_edge\tP2.1\t5\t10\n"
            "path_edge\tP2.2\t6\t10\n"
            "path_edge\tP2.2\t3\t10\n"
            "path_edge\tP2.2\t7\t10\n"
            "path_bottleneck\tP1.1\t5\n"
            "path_bottleneck\tP1.2\t10\n"
            "path_bottleneck\tP2.1\t10\n"
            "path_bottleneck\tP2.2\t10\n"
            "path_color_count\tP1.1\t1\n"
            "path_color_count\tP1.2\t3\n"
            "path_color_count\tP2.1\t2\n"
            "path_color_count\tP2.2\t2\n"
            "path_status\tP1.1\tactive\n"
            "path_status\tP1.2\tactive\n"
            "path_status\tP2.1\tactive\n"
            "path_status\tP2.2\tactive\n"
            "cut\t1\t15\n"
            "cut_edge\t1\t0\n"
            "cut_edge\t1\t1\n"
            "commodity_flow\t1\t15\n"
            "cut\t2\t20\n"
            "cut_edge\t2\t4\n"
            "cut_edge\t2\t6\n"
            "commodity_flow\t2\t20\n"
        )

    def test_human_sections(self, capsys):
        code, out, _ = invoke(capsys, ["tables", GOLDEN])
        assert code == 0
        for header in (
            "EDGE COLORS",
            "EDGE RESIDUAL CAPACITY",
            "PATH RECORD",
            "PATH BOTTLENECK",
            "PATH COLOR COUNT",
            "MIN CUTS",
        ):
            assert header in out
        assert "| Violet" in out
        assert "| Red Green" in out
        assert "P1.1 [active] | s1->t1(5)" in out


class TestSolve:
    def test_structured_golden(self, capsys):
        code, out, _ = invoke(capsys, ["solve", GOLDEN, "--format", "structured"])
        assert code == 0
        assert out == (
            "color_count\tP1.1\t1\n"
            "color_count\tP1.2\t3\n"
            "color_count\tP2.1\t2\n"
            "color_count\tP2.2\t2\n"
            "shipment\tP1.1\t5\ts1->t1\n"
            "shipment\tP2.1\t10\ts2->s1->a->t2\n"
            "shipment\tP2.2\t10\ts2->b->t1->t2\n"
            "discarded\tP1.2\ts1->a->b->t1\n"
            "commodity_value\t1\t5\n"
            "commodity_value\t2\t20\n"
            "total\t25\n"
            "bound_individual\t35\n"
            "bound_inclusion_exclusion\t35\n"
        )

    def test_human_golden(self, capsys):
        code, out, _ = invoke(capsys, ["solve", GOLDEN])
        assert code == 0
        assert "1. P1.1 s1->t1 amount 5" in out
        assert "discarded:" in out
        assert "total: 25" in out
        assert "individual max-flow sum: 35" in out

    def test_disjoint_has_no_discards(self, capsys):
        code, out, _ = invoke(capsys, ["solve", DISJOINT, "--format", "structured"])
        assert code == 0
        assert "discarded" not in out
        assert "total\t10" in out.splitlines()


    def test_thirty_commodities(self, capsys, tmp_path):
        # 2^30 - 1 subset terms would never finish; the union bound is O(E).
        rng = random.Random(3)  # 17 nodes, 152 edges, 399 colored paths
        net = random_network(
            rng, max_nodes=40, max_edges=160, max_cap=9, commodity_range=(30, 30)
        )
        assert len(net.commodities) == 30
        target = tmp_path / "k30.net"
        target.write_text(render_network(net), encoding="utf-8")
        code, out, _ = invoke(capsys, ["solve", str(target), "--format", "structured"])
        assert code == 0
        records = [line.split("\t") for line in out.splitlines()]
        value = {r[0]: int(r[1]) for r in records if len(r) == 2}
        assert sum(1 for r in records if r[0] == "commodity_value") == 30
        tables = build_tables(net)
        union = {e.id: e.capacity for f in tables.flows for e in f.min_cut.cut_edges}
        assert value["bound_inclusion_exclusion"] == sum(union.values())
        assert value["total"] <= value["bound_inclusion_exclusion"]
        assert value["bound_inclusion_exclusion"] <= value["bound_individual"]
        assert validate_assignment(net, greedy_solve(tables)) == []


class TestBound:
    def test_structured_golden(self, capsys):
        code, out, _ = invoke(capsys, ["bound", GOLDEN, "--format", "structured"])
        assert code == 0
        assert out == (
            "cut_sum\t1\t15\n"
            "cut_sum\t2\t20\n"
            "intersection\t1,2\t0\n"
            "bound\t35\n"
        )

    def test_human_golden(self, capsys):
        code, out, _ = invoke(capsys, ["bound", GOLDEN])
        assert code == 0
        assert "commodity 1: 15" in out
        assert "{1,2}: 0" in out
        assert "bound: 35" in out

    def test_reader_leaving_after_first_line_ends_run(self, tmp_path):
        # `mcflow bound k30.net | head -1`: 2^30 - 31 terms follow the cut
        # sums, so the run must stream them and stop at the closed pipe.
        target = tmp_path / "k30.net"
        target.write_text(render_network(regular_network(random.Random(1), 300, 4, 30)))
        deadline = time.monotonic() + 10
        proc = subprocess.Popen(
            [sys.executable, "-m", "mcflow", "bound", str(target)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_module_env(),
        )
        try:
            head = b""
            while b"\n" not in head:
                wait = max(deadline - time.monotonic(), 0)
                ready, _, _ = select.select([proc.stdout], [], [], wait)
                assert ready, "no output line within 10 s"
                chunk = os.read(proc.stdout.fileno(), 65536)
                assert chunk, "output ended before its first line"
                head += chunk
            proc.stdout.close()
            code = proc.wait(timeout=max(deadline - time.monotonic(), 0))
        finally:
            proc.kill()
            proc.wait()
        err = proc.stderr.read()
        proc.stderr.close()
        assert head.split(b"\n")[0] == b"cut capacities:"
        assert code == 2
        assert err == b""

    @pytest.mark.slow
    def test_memory_does_not_grow_with_subset_count(self, tmp_path):
        # 2^20 - 21 terms; a wrapper process reports the peak RSS of its
        # one child, so earlier children of this process do not count.
        target = tmp_path / "k20.net"
        target.write_text(render_network(regular_network(random.Random(1), 300, 4, 20)))
        argv = [sys.executable, "-m", "mcflow", "bound", str(target), "--format", "structured"]
        script = (
            "import resource, subprocess, sys\n"
            f"code = subprocess.run({argv!r}, stdout=subprocess.DEVNULL).returncode\n"
            "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
            "print(code, peak)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=_module_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, peak_kib = map(int, proc.stdout.split())
        assert code == 0
        assert peak_kib < 40 * 1024


class TestOracle:
    def test_structured_golden(self, capsys):
        code, out, _ = invoke(capsys, ["oracle", GOLDEN, "--format", "structured"])
        assert code == 0
        lines = out.splitlines()
        explored = [ln for ln in lines if ln.startswith("explored\t")]
        assert len(explored) == 1 and int(explored[0].split("\t")[1]) > 0
        assert [ln for ln in lines if not ln.startswith("explored")] == [
            "path\t1\t1\t5\ts1->t1",
            "path\t1\t2\t10\ts1->a->b->t1",
            "path\t2\t1\t5\ts2->s1->t1->t2",
            "path\t2\t2\t10\ts2->s1->a->b->t1->t2",
            "path\t2\t3\t10\ts2->s1->a->t2",
            "path\t2\t4\t10\ts2->b->t1->t2",
            "witness\t1\t1\t5",
            "witness\t1\t2\t0",
            "witness\t2\t1\t0",
            "witness\t2\t2\t0",
            "witness\t2\t3\t10",
            "witness\t2\t4\t10",
            "optimum\t25",
            "truncated\tfalse",
        ]

    def test_human_golden(self, capsys):
        code, out, _ = invoke(capsys, ["oracle", GOLDEN])
        assert code == 0
        assert "commodity 2 #3: s2->s1->a->t2 carries 10 (max 10)" in out
        assert "optimum: 25" in out
        assert "truncated: false" in out

    def test_truncation_exits_3(self, capsys):
        code, out, _ = invoke(
            capsys, ["oracle", GOLDEN, "--max-candidates", "1", "--format", "structured"]
        )
        assert code == 3
        assert "truncated\ttrue" in out.splitlines()

    def test_path_limit_exits_3(self, capsys):
        code, out, _ = invoke(capsys, ["oracle", GOLDEN, "--max-paths", "2"])
        assert code == 3
        assert "truncated: true" in out


class TestGap:
    def test_structured_golden(self, capsys):
        code, out, _ = invoke(capsys, ["gap", GOLDEN, "--format", "structured"])
        assert code == 0
        assert out == (
            "heuristic\t25\n"
            "optimum\t25\n"
            "individual_sum\t35\n"
            "inclusion_exclusion\t35\n"
            "gap\t0\n"
            "truncated\tfalse\n"
        )

    def test_human_golden(self, capsys):
        code, out, _ = invoke(capsys, ["gap", GOLDEN])
        assert code == 0
        assert "greedy heuristic: 25" in out
        assert "gap (optimum - heuristic): 0" in out

    def test_truncation_exits_3(self, capsys):
        code, _, _ = invoke(capsys, ["gap", GOLDEN, "--max-candidates", "1"])
        assert code == 3

    def test_path_limit_never_reports_negative_gap(self, capsys):
        code, out, _ = invoke(
            capsys, ["gap", GOLDEN, "--max-paths", "2", "--format", "structured"]
        )
        assert code == 3
        records = dict(line.split("\t") for line in out.splitlines())
        assert records["truncated"] == "true"
        assert int(records["gap"]) >= 0
        assert int(records["optimum"]) >= int(records["heuristic"])


    def test_greedy_at_cut_bound_is_exact_without_search(self, capsys, tmp_path):
        # Criterion 5's instance #044: the oracle cannot finish within the
        # criterion's budget, but greedy's 43 equals the cut-union bound,
        # which proves it optimal.
        target = tmp_path / "gap_044.net"
        target.write_text(CRITERION_5_044, encoding="utf-8")
        argv = ["gap", str(target), "--max-candidates", "300000", "--format", "structured"]
        code, out, err = invoke(capsys, argv)
        assert (code, err) == (0, "")
        assert out == (
            "heuristic\t43\n"
            "optimum\t43\n"
            "individual_sum\t71\n"
            "inclusion_exclusion\t43\n"
            "gap\t0\n"
            "truncated\tfalse\n"
        )
        code, out, _ = invoke(capsys, ["oracle", str(target), "--max-candidates", "300000"])
        assert code == 3
        assert "truncated: true" in out

    @pytest.mark.parametrize("command", ["oracle", "gap"])
    def test_proof_within_budget_exits_0(self, capsys, tmp_path, command):
        # The budget bounds only the search that proves the optimum, so a
        # proof in 629 of 777 nodes is not truncated.
        target = tmp_path / "r04.net"
        target.write_text(CONTRACT_R04, encoding="utf-8")
        argv = [command, str(target), "--max-candidates", "777", "--format", "structured"]
        code, out, err = invoke(capsys, argv)
        assert (code, err) == (0, "")
        records = dict(line.split("\t", 1) for line in out.splitlines())
        assert (records["optimum"], records["truncated"]) == ("36", "false")


class TestDeepNetworks:
    @pytest.mark.parametrize("command", ["gap", "oracle"])
    def test_1200_node_chain(self, capsys, tmp_path, command):
        # Far deeper than the interpreter's default recursion limit.
        lines = [f"node v{i}" for i in range(1200)]
        lines += [f"edge v{i} v{i + 1} 3" for i in range(1199)]
        lines.append("commodity v0 v1199")
        target = tmp_path / "chain.net"
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = invoke(capsys, [command, str(target), "--format", "structured"])
        assert (code, err) == (0, "")
        records = dict(line.split("\t")[:2] for line in out.splitlines())
        assert records["optimum"] == "3"
        assert records["truncated"] == "false"

    @pytest.mark.parametrize("command", ["gap", "oracle"])
    def test_1100_path_catalog(self, capsys, tmp_path, command):
        # The oracle's search goes one level deeper per catalog path.
        lines = ["node s", "node t"] + ["edge s t 1"] * 1100 + ["commodity s t"]
        target = tmp_path / "parallel.net"
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = invoke(
            capsys,
            [command, str(target), "--max-paths", "2000", "--format", "structured"],
        )
        assert (code, err) == (0, "")
        records = dict(line.split("\t")[:2] for line in out.splitlines())
        assert records["optimum"] == "1100"
        assert records["truncated"] == "false"

    @pytest.mark.parametrize("command", ["gap", "oracle"])
    def test_path_limit_reached_within_deadline(self, tmp_path, command):
        # 200 nodes of out-degree 3: each commodity has far more than the
        # 64 simple paths the oracle allows, and the trail wanders into
        # huge subtrees that hold none.  The run must give up in seconds.
        target = tmp_path / "wide.net"
        target.write_text(render_network(regular_network(random.Random(2), 200, 3, 4)))
        proc = subprocess.run(
            [sys.executable, "-m", "mcflow", command, str(target), "--format", "structured"],
            capture_output=True,
            text=True,
            env=_module_env(),
            timeout=10,
        )
        assert (proc.returncode, proc.stderr) == (3, "")
        records = dict(line.split("\t")[:2] for line in proc.stdout.splitlines())
        assert records["truncated"] == "true"


# Every subcommand, with a node budget that keeps the oracle's search short.
EVERY_COMMAND = [
    ["validate"],
    ["maxflow", "--commodity", "1"],
    ["tables"],
    ["solve"],
    ["bound"],
    ["oracle", "--max-candidates", "1000"],
    ["gap"],
    ["export", "--assignment"],
]


class TestHugeCapacities:
    """Two parallel a->b edges and two a->b commodities.  Reports print
    sums of capacities, which str() refuses past 4300 digits, so the
    parser caps a capacity at 4000 digits."""

    @staticmethod
    def _run(tmp_path, capacity, argv, **env):
        target = tmp_path / "huge.net"
        target.write_text(
            f"node a\nnode b\nedge a b {capacity}\nedge a b {capacity}\n"
            "commodity a b\ncommodity a b\n"
        )
        command, *options = argv
        return subprocess.run(
            [sys.executable, "-m", "mcflow", command, str(target), *options],
            capture_output=True,
            text=True,
            env={**_module_env(), **env},
            timeout=30,
        )

    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
    def test_more_than_4000_digits_is_a_parse_error(self, tmp_path, argv):
        proc = self._run(tmp_path, "9" * 4300, argv)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: line 3: capacity has more than 4000 digits\n"

    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
    def test_4000_digits_print_every_total(self, tmp_path, argv):
        proc = self._run(tmp_path, "9" * 4000, argv)
        assert proc.returncode == (3 if argv[0] == "oracle" else 0)
        assert proc.stderr == ""
        # Every report but validate's prints at least one 4000-digit number.
        assert re.search(r"\d{4000}", proc.stdout) or argv == ["validate"]

    def test_lowered_interpreter_digit_limit_is_a_parse_error(self, tmp_path):
        proc = self._run(tmp_path, "9" * 1000, ["solve"], PYTHONINTMAXSTRDIGITS="640")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: line 3: capacity has more than 340 digits\n"

    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
    def test_lowered_interpreter_digit_limit_keeps_totals_printable(self, tmp_path, argv):
        # 640 digits pass int() under a 640-digit limit, but their sum would
        # not pass str(): the parser leaves 300 digits of headroom.
        proc = self._run(tmp_path, "9" * 640, argv, PYTHONINTMAXSTRDIGITS="640")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: line 3: capacity has more than 340 digits\n"


class TestExport:
    def test_plain_dot(self, capsys):
        code, out, _ = invoke(capsys, ["export", GOLDEN])
        assert code == 0
        assert out.startswith("digraph")
        assert out.count('" -> "') == 8
        assert 'label="5"' in out

    def test_assignment_overlay(self, capsys):
        code, out, _ = invoke(capsys, ["export", GOLDEN, "--assignment"])
        assert code == 0
        assert 'label="5/5"' in out
        assert 'label="0/10"' in out


class TestExitCodesAndInput:
    def test_parse_error_exits_2_with_line_number(self, capsys):
        code, out, err = invoke(capsys, ["validate", BAD])
        assert code == 2
        assert out == ""
        assert "line 4" in err

    def test_unprintable_node_name_exits_2(self, capsys, tmp_path):
        target = tmp_path / "nul.net"
        target.write_text("node s\nnode a\x00\nedge s a 1\ncommodity s a\n", encoding="utf-8")
        code, out, err = invoke(capsys, ["solve", str(target)])
        assert (code, out) == (2, "")
        assert "line 2" in err and "unprintable" in err

    @pytest.mark.parametrize("case", range(len(LONG_TOKEN_CASES)))
    def test_long_token_gives_one_short_diagnostic(self, capsys, tmp_path, case):
        text, line, reason = LONG_TOKEN_CASES[case]
        target = tmp_path / "long.net"
        target.write_text(text, encoding="utf-8")
        code, out, err = invoke(capsys, ["solve", str(target)])
        assert (code, out, err) == (2, "", f"error: line {line}: {reason}\n")
        assert len(err.encode("utf-8")) < 160

    def test_undecodable_file_exits_2(self, capsys, tmp_path):
        target = tmp_path / "latin1.net"
        target.write_bytes(b"node a\xff\nnode b\nedge a b 1\ncommodity a b\n")
        code, out, err = invoke(capsys, ["validate", str(target)])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "utf-8" in err
        assert "Traceback" not in err

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        data=st.one_of(
            st.binary(max_size=200),
            st.tuples(
                st.integers(0, len(GOLDEN_BYTES)), st.binary(min_size=1, max_size=4)
            ).map(lambda cut: GOLDEN_BYTES[: cut[0]] + cut[1] + GOLDEN_BYTES[cut[0] :]),
        )
    )
    def test_arbitrary_bytes_exit_0_to_3(self, capsys, tmp_path, data):
        target = tmp_path / "soup.net"
        target.write_bytes(data)
        for command, *options in (["validate"], ["solve"], ["gap", "--max-candidates", "1000"]):
            code = run([command, str(target), *options])
            assert type(code) is int and code in (0, 2, 3)
        capsys.readouterr()

    def test_missing_file_exits_2(self, capsys):
        code, _, err = invoke(capsys, ["solve", str(DATA / "nope.net")])
        assert code == 2
        assert "error:" in err

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate", GOLDEN])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["oracle", "gap"])
    @pytest.mark.parametrize("option", ["--max-paths", "--max-candidates"])
    def test_negative_budget_is_usage_error(self, capsys, command, option):
        # Non-integer budgets are usage errors too.
        for value, message in [
            ("-5", "must not be negative: -5"),
            ("abc", "invalid int value: 'abc'"),
            ("1.5", "invalid int value: '1.5'"),
        ]:
            with pytest.raises(SystemExit) as exc:
                run([command, GOLDEN, option, value])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{option}: {message}" in captured.err

    def test_stdin_dash(self, capsys, monkeypatch, golden_text):
        monkeypatch.setattr(sys, "stdin", io.StringIO(golden_text))
        code, out, _ = invoke(capsys, ["solve", "-", "--format", "structured"])
        assert code == 0
        assert "total\t25" in out.splitlines()

    def test_structured_fields_parse_as_integers(self, capsys):
        _, out, _ = invoke(capsys, ["solve", GOLDEN, "--format", "structured"])
        for line in out.splitlines():
            fields = line.split("\t")
            if fields[0] in ("total", "bound_individual", "bound_inclusion_exclusion"):
                assert int(fields[1]) >= 0

    def test_repeated_runs_are_byte_identical(self, capsys):
        first = invoke(capsys, ["solve", GOLDEN, "--format", "structured"])
        second = invoke(capsys, ["solve", GOLDEN, "--format", "structured"])
        assert first == second

    def test_options_do_not_carry_over_between_runs(self, capsys):
        code, out, _ = invoke(
            capsys, ["oracle", GOLDEN, "--max-candidates", "1", "--format", "structured"]
        )
        assert code == 3
        code, out, _ = invoke(capsys, ["oracle", GOLDEN, "--format", "structured"])
        assert code == 0
        records = dict(line.split("\t")[:2] for line in out.splitlines())
        assert int(records["explored"]) > 1
        assert records["truncated"] == "false"
        code, _, _ = invoke(capsys, ["gap", GOLDEN, "--max-paths", "2"])
        assert code == 3
        code, out, _ = invoke(capsys, ["gap", GOLDEN])
        assert code == 0
        assert "truncated: false" in out


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mcflow", "validate", GOLDEN],
            capture_output=True,
            text=True,
            env=_module_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout == "ok\n"

    @pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
    def test_reads_and_writes_utf8_whatever_the_locale(self, tmp_path, from_stdin):
        target = tmp_path / "accent.net"
        target.write_bytes("node sä\nnode t\nedge sä t 3\ncommodity sä t\n".encode("utf-8"))
        outputs = {}
        for encoding in ("ascii", "latin-1", "utf-8"):
            proc = subprocess.run(
                [sys.executable, "-m", "mcflow", "solve", "-" if from_stdin else str(target)],
                input=target.read_bytes() if from_stdin else None,
                capture_output=True,
                env={**_module_env(), "PYTHONIOENCODING": encoding},
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            assert b"Traceback" not in proc.stderr
            outputs[encoding] = proc.stdout
        assert outputs["ascii"] == outputs["latin-1"] == outputs["utf-8"]
        assert "sä->t amount 3".encode("utf-8") in outputs["utf-8"]

    def test_diagnostics_are_utf8_whatever_the_locale(self, tmp_path):
        target = tmp_path / "twice.net"
        target.write_bytes("node sä\nnode sä\n".encode("utf-8"))
        diagnostics = set()
        for encoding in ("ascii", "latin-1", "utf-8"):
            proc = subprocess.run(
                [sys.executable, "-m", "mcflow", "validate", str(target)],
                capture_output=True,
                env={**_module_env(), "PYTHONIOENCODING": encoding},
                timeout=60,
            )
            assert (proc.returncode, proc.stdout) == (2, b"")
            diagnostics.add(proc.stderr)
        assert diagnostics == {"error: line 2: duplicate node name 'sä'\n".encode("utf-8")}

    def test_diagnostics_escape_what_utf8_cannot_encode(self):
        # An argument that is not UTF-8 reaches argparse as a lone surrogate.
        proc = subprocess.run(
            [sys.executable, "-m", "mcflow", "validate", GOLDEN, b"\xff"],
            capture_output=True,
            env=_module_env(),
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.endswith(b"error: unrecognized arguments: \\udcff\n")

    @pytest.mark.parametrize(
        "closed, source, expected",
        [
            (0, "-", (2, b"error: standard input is closed\n")),
            (1, GOLDEN, (2, b"error: standard output is closed\n")),
            (0, GOLDEN, (0, b"")),  # a file is read, never the closed stdin
        ],
        ids=["stdin", "stdout", "stdin-unread"],
    )
    def test_closed_standard_stream(self, closed, source, expected):
        # Python sets sys.stdin or sys.stdout to None for a closed descriptor.
        proc = subprocess.run(
            [sys.executable, "-m", "mcflow", "validate", source],
            capture_output=True,
            env=_module_env(),
            timeout=60,
            preexec_fn=lambda: os.close(closed),
        )
        assert (proc.returncode, proc.stderr) == expected

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", GOLDEN],
            ["bound", GOLDEN],
            ["export", GOLDEN],
            ["validate", GOLDEN],
            ["tables", GOLDEN],
            ["maxflow", GOLDEN, "--commodity", "1"],
            ["oracle", GOLDEN],
            ["gap", GOLDEN],
            ["--help"],
            ["solve", "--help"],
        ],
        ids=[
            "solve", "bound", "export", "validate", "tables", "maxflow", "oracle", "gap",
            "help", "solve-help",
        ],
    )
    def test_failed_write_exits_2(self, argv):
        # /dev/full takes the open but fails every write with ENOSPC; help
        # text too, which argparse would otherwise drop without a word.
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "mcflow", *argv],
                stdout=full,
                stderr=subprocess.PIPE,
                env=_module_env(),
                timeout=60,
            )
        assert proc.returncode == 2
        no_space = b"[Errno 28] No space left on device"
        assert proc.stderr == b"error: cannot write the report: " + no_space + b"\n"

    @pytest.mark.parametrize("when", ["at start", "after start"])
    def test_closed_standard_error(self, tmp_path, when):
        # Closed before Python starts, descriptor 2 leaves sys.stderr None;
        # closed after, sys.stderr stays and each write fails with EBADF.
        # Either way the diagnostic is lost, never printed to stdout.
        target = tmp_path / "twice.net"
        target.write_text("node s\nnode s\n", encoding="utf-8")
        argv = ["validate", str(target)]
        if when == "at start":
            command = [sys.executable, "-m", "mcflow", *argv]
            close = lambda: os.close(2)  # noqa: E731
        else:
            script = "import os, sys\nos.close(2)\nfrom mcflow.cli import main\n"
            script += f"sys.exit(main({argv!r}))\n"
            command = [sys.executable, "-c", script]
            close = None
        proc = subprocess.run(
            command, capture_output=True, env=_module_env(), timeout=60, preexec_fn=close
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", b"")

    def test_reader_closing_early_exits_cleanly(self, capsys, tmp_path):
        # `mcflow tables big.net | head -1`: the report is larger than a
        # pipe buffer, so mcflow is still writing when the reader leaves.
        target = tmp_path / "big.net"
        net = regular_network(random.Random(1), 600, 4, 16)
        target.write_text(render_network(net), encoding="utf-8")
        code, out, _ = invoke(capsys, ["tables", str(target)])
        assert code == 0 and len(out) > 2 * 65536
        proc = subprocess.Popen(
            [sys.executable, "-m", "mcflow", "tables", str(target)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_module_env(),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) in (0, 1, 2, 3)
        assert first == b"EDGE COLORS\n"
        assert b"Traceback" not in err

    def test_parser_is_built_once_and_not_at_import(self):
        # Count argparse parsers, the top-level one and its subcommands',
        # made by a fresh process across an import and two runs.
        script = (
            "import argparse\n"
            "built = 0\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    global built\n"
            "    built += 1\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import mcflow.cli\n"
            "counts = [built]\n"
            f"for argv in (['validate', {GOLDEN!r}], ['gap', {GOLDEN!r}]):\n"
            "    mcflow.cli.run(argv)\n"
            "    counts.append(built)\n"
            "print(*counts)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=_module_env()
        )
        assert proc.returncode == 0, proc.stderr
        at_import, first_run, second_run = map(int, proc.stdout.split()[-3:])
        assert at_import == 0
        assert first_run > 0
        assert second_run == first_run

    def test_console_script(self):
        script = shutil.which("mcflow")
        assert script is not None, "console script not installed"
        proc = subprocess.run(
            [script, "gap", GOLDEN, "--format", "structured"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "gap\t0" in proc.stdout.splitlines()
