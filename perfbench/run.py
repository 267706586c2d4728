"""Seeded, stdlib-only benchmark of the `mcflow` pipeline.

Run one workload in this process, so `peak_rss_mb` and `setup_s` belong
to it:

    python3 perfbench/run.py --workload large_solve --seed 1 --seconds 30 --trace 0

Without `--workload`, every workload runs in turn, each in a fresh
single-threaded subprocess.  Each instance runs the workload's CLI call
(`mcflow solve` or `mcflow gap`, in-process through `mcflow.cli.run`) and
then `validate_assignment` on the greedy result of that call.  Outputs are
checked outside the timed region.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics of a traced pass
with `--trace 1`.  METRICS.md defines every metric.

`--record` adds the greedy totals, bounds and proven optima of the seed's
instances to recorded.json, never replacing a value already there.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RECORDED = HERE / "recorded.json"
SETUP_REPEATS = 5
CERTIFY_BATCH_S = 0.002

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import corpus  # noqa: E402
from clock import Clock, normalise  # noqa: E402
from spans import Tracer, patched  # noqa: E402


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (for example, no package source)."""


def _import_package():
    """Import `mcflow` and `mcflow.cli` afresh from this checkout's `src`."""
    for key in [k for k in sys.modules if k == "mcflow" or k.startswith("mcflow.")]:
        del sys.modules[key]
    package = importlib.import_module("mcflow")
    origin = Path(package.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"mcflow imported from {origin}, not from {SRC}")
    return package, importlib.import_module("mcflow.cli")


def set_up(workload: corpus.Workload, seed: int, work: Path, clock: Clock):
    """Import the package, generate the instances and write them as `.net`
    files, SETUP_REPEATS times.

    Returns (raw time, nearby reference time) per repeat, and the package,
    texts and paths of the last repeat.
    """
    if not (SRC / "mcflow" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'mcflow'}")
    sys.pycache_prefix = str(work / "pycache")  # never read src/__pycache__
    sys.path.insert(0, str(SRC))
    timings = []
    for repeat in range(SETUP_REPEATS):
        before = clock.reference()
        start = time.perf_counter()
        package, cli = _import_package()
        texts = corpus.generate(workload, seed)
        folder = work / f"inputs{repeat}"
        folder.mkdir()
        paths = []
        for position, text in enumerate(texts):
            path = folder / f"{workload.name}_{position:03d}.net"
            path.write_text(text, encoding="utf-8")
            paths.append(path)
        elapsed = time.perf_counter() - start
        timings.append((elapsed, (before + clock.reference()) / 2))
    return timings, package, cli, texts, paths


@dataclass(frozen=True)
class Sample:
    """Raw times of one instance's two operations, each with the mean of
    the reference times measured just before and just after it."""

    cli_s: float
    cli_reference: float
    certify_s: float
    certify_reference: float


class Runner:
    """Runs and checks one workload's operations; counts failures."""

    def __init__(self, workload, package, cli, texts, paths, recorded, clock):
        self.workload = workload
        # Bound before any patching, so these calls are never traced.
        self.parse_network = package.netmodel.parse_network
        self.validate_assignment = package.heuristic.validate_assignment
        self.heuristic = package.heuristic
        self.cli = cli
        self.clock = clock
        self.texts = texts
        self.paths = paths
        self.recorded = recorded
        self.networks: list = [None] * len(texts)
        self.values: list[dict] = [{} for _ in texts]
        self.attempted = 0
        self.failed = 0
        self.argv_tail = ["--format", "structured"]
        if workload.command == "gap":
            self.argv_tail += ["--max-candidates", str(corpus.ORACLE_BUDGET)]

    def _fail(self, position: int, what: str, problems: list[str]) -> None:
        self.failed += 1
        for problem in problems:
            print(f"FAIL {self.workload.name} #{position:03d} {what}: {problem}", file=sys.stderr)

    def network(self, position: int):
        """The parsed instance, for certification outside the timed region;
        None when the package cannot parse it."""
        if self.networks[position] is None:
            try:
                self.networks[position] = self.parse_network(self.texts[position])
            except Exception:
                print(traceback.format_exc(limit=-3), file=sys.stderr)
        return self.networks[position]

    def instance(self, position: int, tracer: Tracer | None = None) -> Sample:
        """Run and check the CLI call and the certification of one instance.

        A failed operation still yields its time.  With a tracer, spans are
        recorded around every layer's calls.
        """
        argv = [self.workload.command, str(self.paths[position]), *self.argv_tail]
        network = self.network(position)
        captured: dict = {}

        def on_result(name, result):
            if name == "greedy_solve":
                captured["assignment"] = result
            if tracer is not None:
                _count(tracer, name, result)

        if tracer is None:
            wrappers = {"greedy_solve": _capturing(on_result)}
        else:
            tracer.instance = position
            wrappers = tracer.wrappers(on_result)
        out, err = io.StringIO(), io.StringIO()
        code = error = violations = None
        cert_time = 0.0
        with patched(wrappers):
            first = self.clock.reference()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                span = tracer.span("cli.run") if tracer else contextlib.nullcontext()
                start = time.perf_counter()
                try:
                    with span:
                        code = self.cli.run(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception:
                    error = traceback.format_exc(limit=-3)
                cli_time = time.perf_counter() - start
            middle = self.clock.reference()
            assignment = captured.get("assignment")
            if assignment is not None and network is not None:
                calls = 0
                start = time.perf_counter()
                try:
                    violations = self.heuristic.validate_assignment(network, assignment)
                    calls = 1
                    # A 40 us call is mostly cache and timer noise: repeat
                    # short ones, untraced, and time the mean.
                    while time.perf_counter() - start < CERTIFY_BATCH_S:
                        self.validate_assignment(network, assignment)
                        calls += 1
                except Exception:
                    violations = [traceback.format_exc(limit=-3)]
                cert_time = (time.perf_counter() - start) / max(calls, 1)
            last = self.clock.reference()
        self.attempted += 2
        if error is not None:
            self._fail(position, self.workload.command, [error])
        else:
            self._check_cli(position, code, out.getvalue(), assignment, tracer)
        if violations is None:
            self._fail(position, "certify", ["no greedy result or network to certify"])
        else:
            self._check_certificate(position, assignment, violations)
        return Sample(cli_time, (first + middle) / 2, cert_time, (middle + last) / 2)

    def _check_cli(self, position, code, output, assignment, tracer) -> None:
        if self.workload.command == "solve":
            problems, values = checks.check_solve(code, output)
        else:
            problems, values = checks.check_gap(code, output)
        if values and assignment is not None and assignment.total_value != values["total"]:
            problems.append(
                f"output total {values['total']} != greedy result {assignment.total_value}"
            )
        if values:
            key = checks.instance_key(self.texts[position])
            problems += checks.check_recorded(values, self.recorded.get(key))
        if problems:
            self._fail(position, self.workload.command, problems)
        self.values[position] = values
        if tracer is not None and values.get("counterexample"):
            tracer.counts["oracle.counterexamples"] += 1

    def _check_certificate(self, position, assignment, violations) -> None:
        edges, commodities = checks.parse_text(self.texts[position])
        own = checks.check_assignment(edges, commodities, assignment)
        problems = [f"validate_assignment: {v}" for v in violations]
        problems += [f"independent check: {p}" for p in own]
        if bool(violations) != bool(own):
            problems.append("validate_assignment and the independent check disagree")
        if problems:
            self._fail(position, "certify", problems)


def _capturing(on_result):
    """Wrapper factory that only hands the result on: no span, no timing."""

    def factory(original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            on_result(original.__name__, result)
            return result

        return wrapper

    return factory


def _count(tracer: Tracer, name: str, result) -> None:
    """Work counters read off the traced calls' results."""
    counts = tracer.counts
    if name == "decompose_cut_paths":
        counts["maxflow.paths"] += len(result)
    elif name == "greedy_solve":
        counts["heuristic.shipments"] += len(result.shipments)
        counts["heuristic.discards"] += len(result.discarded)
    elif name == "inclusion_exclusion_bound":
        counts["heuristic.bound_terms"] += len(getattr(result, "intersection_terms", ()))
    elif name == "enumerate_paths":
        counts["oracle.catalog_paths"] += len(result)
    elif name == "optimal_value":
        counts["oracle.explored"] += result.explored
        counts["oracle.truncated"] += int(result.truncated)


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced run: one full pass, then further passes, instance by
    instance, while the next instance is expected to finish in time.

    Times are medians over instances of each instance's median sample,
    normalised to machine speed (see clock.py).
    """
    count = len(runner.texts)
    samples: list[list[Sample]] = [[] for _ in range(count)]
    start = time.perf_counter()
    taken = 0
    while True:
        index = taken % count
        if taken >= count:
            last = samples[index][-1]
            if time.perf_counter() + last.cli_s + last.certify_s > start + seconds:
                break
        samples[index].append(runner.instance(index))
        taken += 1
    cli = [
        statistics.median(normalise(s.cli_s, s.cli_reference) for s in row) for row in samples
    ]
    certify = [
        statistics.median(normalise(s.certify_s, s.certify_reference) for s in row)
        for row in samples
    ]
    raw = [statistics.median(s.cli_s for s in row) for row in samples]
    return {
        "cli_p50_s": statistics.median(cli),
        "cli_p90_s": _p90(cli),
        "certify_s": statistics.median(certify),
        "raw_cli_p50_s": statistics.median(raw),
        "samples": taken,
        "measured_s": time.perf_counter() - start,
    }


def measure_traced(runner: Runner) -> tuple[dict, Tracer]:
    """Traced run: one pass; each instance runs untraced, then traced.

    Per-layer times are per-instance means, normalised to machine speed;
    counts are totals over the pass.
    """
    tracer = Tracer()
    count = len(runner.texts)
    plain, traced = [], []
    for index in range(count):
        plain.append(runner.instance(index))
        traced.append(runner.instance(index, tracer))
    by_instance = tracer.durations()
    totals: dict[str, float] = {}
    for index, sample in enumerate(traced):
        nearby = (sample.cli_reference + sample.certify_reference) / 2
        for name, seconds in by_instance.get(index, {}).items():
            totals[name] = totals.get(name, 0.0) + normalise(seconds, nearby)

    def per_instance(name: str) -> float:
        return totals.get(name, 0.0) / count

    def whole(sample: Sample) -> float:
        return normalise(sample.cli_s, sample.cli_reference) + normalise(
            sample.certify_s, sample.certify_reference
        )

    counts = tracer.counts
    metrics = {
        "netmodel.parse_s": per_instance("netmodel.parse_network"),
        "netmodel.validate_s": per_instance("netmodel.validate_network"),
        "maxflow.max_flow_s": per_instance("maxflow.max_flow"),
        "maxflow.decompose_s": per_instance("maxflow.decompose_cut_paths"),
        "maxflow.paths": counts["maxflow.paths"],
        "tables.build_s": per_instance("tables.build_tables"),
        "tables.build_self_s": per_instance("tables.build_tables:self"),
        "heuristic.greedy_s": per_instance("heuristic.greedy_solve"),
        "heuristic.shipments": counts["heuristic.shipments"],
        "heuristic.discards": counts["heuristic.discards"],
        "heuristic.ship_ratio": (
            counts["heuristic.shipments"] / counts["maxflow.paths"]
            if counts["maxflow.paths"]
            else 0.0
        ),
        "heuristic.bounds_s": per_instance("heuristic.upper_bounds"),
        "heuristic.bound_terms": counts["heuristic.bound_terms"],
        "heuristic.check_s": per_instance("heuristic.validate_assignment"),
        "oracle.enumerate_s": per_instance("oracle.enumerate_paths"),
        "oracle.search_s": per_instance("oracle.optimal_value:self"),
        "oracle.catalog_paths": counts["oracle.catalog_paths"],
        "oracle.explored": counts["oracle.explored"],
        "oracle.truncated": counts["oracle.truncated"],
        "oracle.truncated_frac": counts["oracle.truncated"] / count,
        "oracle.counterexamples": counts["oracle.counterexamples"],
        "cli.run_s": per_instance("cli.run"),
        "cli.self_s": per_instance("cli.run:self"),
        "cli.p90_s": _p90([normalise(s.cli_s, s.cli_reference) for s in plain]),
        "trace.overhead_s": sum(whole(t) - whole(p) for p, t in zip(plain, traced)) / count,
    }
    return metrics, tracer


END_TO_END_UNITS = {"setup_s": "s", "cli_p50_s": "s", "certify_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_ratio", "_frac")) else "count"


def _load_recorded() -> dict:
    if not RECORDED.is_file():
        return {}
    return json.loads(RECORDED.read_text(encoding="utf-8"))


def record(runner: Runner) -> int:
    """Add this seed's checked values to recorded.json; returns the number
    of new entries.  An entry already there is compared, never replaced."""
    for position in range(len(runner.texts)):
        runner.instance(position)
    if runner.failed:
        raise SystemExit(f"{runner.failed} failed operations; nothing recorded")
    everything = _load_recorded()
    table = everything.setdefault(runner.workload.name, {})
    added = 0
    for text, values in zip(runner.texts, runner.values):
        key = checks.instance_key(text)
        if key not in table:
            table[key] = [
                values["total"],
                values["bound_individual"],
                values["bound_inclusion_exclusion"],
                values.get("optimum"),
            ]
            added += 1
    _write_recorded(everything)
    return added


def _write_recorded(everything: dict) -> None:
    """One instance per line, so a new seed shows as added lines."""
    blocks = []
    for name, table in sorted(everything.items()):
        rows = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items()))
        blocks.append(f"{json.dumps(name)}: {{\n{rows}\n}}")
    RECORDED.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


def run_workload(args) -> dict:
    """Set up and run one workload in this process; returns the result."""
    workload = corpus.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    clock = Clock()
    try:
        setups, package, cli, texts, paths = set_up(workload, args.seed, work, clock)
        recorded = _load_recorded().get(workload.name, {})
        runner = Runner(workload, package, cli, texts, paths, recorded, clock)
        head = f"{workload.name} seed {args.seed}: {len(texts)} instances of `mcflow {workload.command}`"
        if args.record:
            print(f"{head}: recorded {record(runner)} new entries")
            return {}
        if args.trace:
            metrics, tracer = measure_traced(runner)
            spans = WORK / f"spans-{workload.name}-{args.seed}.jsonl"
            tracer.write(spans)
            print(f"{head}, traced: {len(tracer.spans)} spans in {spans.relative_to(ROOT)}")
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            stats = measure(runner, args.seconds)
            metrics = {
                "setup_s": statistics.median(normalise(*s) for s in setups),
                "cli_p50_s": stats["cli_p50_s"],
                "certify_s": stats["certify_s"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
            print(
                f"{head}: {stats['samples']} samples of each operation in"
                f" {stats['measured_s']:.1f} s; medians over instances"
            )
            alias = "solve_s" if workload.command == "solve" else "gap_p50_s"
            print(f"  {alias} = cli_p50_s; cli_p90_s {stats['cli_p90_s']:.6f} s")
            print(f"  cli_p50_s before normalising to machine speed {stats['raw_cli_p50_s']:.6f} s")
            if workload.command == "gap":
                truncated = sum(1 for values in runner.values if values.get("truncated"))
                print(f"  truncated_frac {truncated / len(texts)} ratio")
        references = clock.references
        print(
            f"  reference computation: fastest {min(references) * 1e3:.4f} ms,"
            f" median {statistics.median(references) * 1e3:.4f} ms of {len(references)}"
        )
        checked = sum(1 for text in texts if checks.instance_key(text) in recorded)
        print(f"  {checked} of {len(texts)} instances compared with recorded values")
        for name, value in metrics.items():
            print(f"  {name} {value} {units[name]}")
        fail_frac = runner.failed / runner.attempted
        print(f"  fail_frac {fail_frac} ratio ({runner.failed} of {runner.attempted} operations)")
        return {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> dict:
    """Every workload in turn, each in a fresh subprocess."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in corpus.WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited {done.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    try:
        result = run_workload(args) if args.workload else run_all(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.record:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
