"""Byte contract for the CLI: every recorded (input, argv) case must print
exactly what it printed when the digests were recorded.

Each case hashes stdout, stderr and the exit code with sha256 (stored in
unpadded URL-safe base64 to keep the file small).  The inputs
are the fixtures under data/, the networks under counterexamples/ and a
seeded corpus from the helpers' generators; the recorded digests live in
data/cli_bytes.sha256.  A refactor that keeps every output the same keeps
this test passing unchanged.  After a deliberate output change, rerun

    PYTHONPATH=src python tests/test_cli_bytes.py [SUBCOMMAND ...]

to rewrite the digests of the named subcommands (of all, when none is
named; every other line keeps its bytes), and say in the change which
cases moved.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

import pytest

from helpers import random_network, regular_network, render_network
from mcflow import parse_network
from mcflow.cli import run

HERE = Path(__file__).parent
DIGESTS = HERE / "data" / "cli_bytes.sha256"
MAX_CANDIDATES = "777"
# Inputs this small also go through the exhaustive oracle.
SMALL_EDGES = 16
SMALL_COMMODITIES = 3
STYLES = (["--format", "human"], ["--format", "structured"])
COMMANDS = {"validate", "tables", "solve", "bound", "maxflow", "oracle", "gap", "export"}


def _inputs() -> list[tuple[str, str]]:
    """(name, network text): fixtures, counterexamples, seeded corpus."""
    named = [(p.stem, p.read_text()) for p in sorted((HERE / "data").glob("*.net"))]
    named += [(p.stem, p.read_text()) for p in sorted((HERE / "counterexamples").glob("*.net"))]
    rng = random.Random(1414)
    for i in range(28):
        net = random_network(rng, max_nodes=8, max_edges=16, commodity_range=(1, 3))
        named.append((f"r{i:02d}", render_network(net)))
    for i in range(28):
        commodities = 12 if i == 27 else rng.randint(1, 4)
        net = regular_network(rng, rng.randint(5, 14), rng.randint(2, 3), commodities)
        named.append((f"g{i:02d}", render_network(net)))
    return named


def _commands(text: str) -> list[list[str]]:
    """Every argv, minus the input path, that the contract runs on `text`:
    each in both output styles, except export, which has only one."""
    commands = [["validate"], ["tables"], ["solve"], ["export"], ["export", "--assignment"]]
    try:
        net = parse_network(text)
    except ValueError:
        net = None
    if net is None or len(net.commodities) <= 12:
        commands.append(["bound"])
    if net is not None:
        commands += [["maxflow", "--commodity", str(c.index)] for c in net.commodities]
    if net is None or (len(net.edges) <= SMALL_EDGES and len(net.commodities) <= SMALL_COMMODITIES):
        commands += [
            ["oracle", "--max-candidates", MAX_CANDIDATES],
            ["gap", "--max-candidates", MAX_CANDIDATES],
            # Any commodity with two paths overflows the catalog, which
            # leaves the oracle with no paths to print.
            ["oracle", "--max-paths", "1"],
            ["gap", "--max-paths", "1"],
        ]
    return [
        argv + style
        for argv in commands
        for style in (([],) if argv[0] == "export" else STYLES)
    ]


def _digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    digest = hashlib.sha256(blob.encode("utf-8")).digest()
    return base64.urlsafe_b64encode(digest).decode("ascii").rstrip("=")


def compute(workdir: Path, keep: dict[str, str] | None = None) -> dict[str, str]:
    """Case name -> digest, in contract order, running every case in-process
    on files under `workdir` (outputs never name the input path).  A case
    named in `keep` takes its digest from there instead of being run."""
    keep = keep or {}
    digests: dict[str, str] = {}
    for name, text in _inputs():
        path = workdir / f"{name}.net"
        path.write_text(text, encoding="utf-8")
        for command, *options in _commands(text):
            case = " ".join([name, command, *(o for o in options if o != "--format")])
            if case in keep:
                digests[case] = keep[case]
            else:
                digests[case] = _digest([command, str(path), *options])
    return digests


def recorded() -> dict[str, str]:
    cases: dict[str, str] = {}
    for line in DIGESTS.read_text().splitlines():
        case, digest = line.rsplit(" ", 1)
        cases[case] = digest
    return cases


def test_every_case_prints_its_recorded_bytes(tmp_path):
    want = recorded()
    got = compute(tmp_path)
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    changed = [case for case in want if case in got and got[case] != want[case]]
    assert not missing, f"{len(missing)} recorded cases no longer run: {missing[:10]}"
    assert not extra, f"{len(extra)} cases have no recorded digest: {extra[:10]}"
    assert not changed, f"{len(changed)} cases print different bytes: {changed[:10]}"


def test_contract_covers_every_command():
    assert {case.split(" ")[1] for case in recorded()} == COMMANDS


def test_export_takes_no_format(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["export", str(HERE / "data" / "two_commodity.net"), "--format", "structured"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --format structured" in captured.err


def _record(named: list[str]) -> None:
    """Rewrite the digests of the named subcommands, or of all when none is
    named; every other line of the digest file keeps its bytes.  Prints the
    name of every case whose digest changed."""
    unknown = sorted(set(named) - COMMANDS)
    if unknown:
        raise SystemExit(f"unknown subcommands {unknown}; known: {sorted(COMMANDS)}")
    rerun = set(named) or COMMANDS
    before = recorded()
    keep = {case: d for case, d in before.items() if case.split(" ")[1] not in rerun}
    with tempfile.TemporaryDirectory() as scratch:
        cases = compute(Path(scratch), keep)
    unrecorded = [c for c in cases if c.split(" ")[1] not in rerun and c not in keep]
    dropped = sorted(set(keep) - set(cases))
    if unrecorded or dropped:
        raise SystemExit(
            f"cases of subcommands not named changed: {len(unrecorded)} new"
            f" {unrecorded[:5]}, {len(dropped)} gone {dropped[:5]}; name them too"
        )
    moved = [case for case, digest in cases.items() if before.get(case) != digest]
    DIGESTS.write_text("".join(f"{case} {digest}\n" for case, digest in cases.items()))
    print(f"recorded {len(cases) - len(keep)} of {len(cases)} cases in {DIGESTS}")
    print(f"{len(moved)} cases moved:", *moved, sep="\n")


if __name__ == "__main__":
    _record(sys.argv[1:])
