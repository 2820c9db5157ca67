"""Benchmark of the lzwmetrics command line, end to end and layer by layer.

Run one workload (the last stdout line is a JSON result)::

    python3 bench/run.py --workload markov-surrogates --seed 1 --seconds 30 --trace 0

Run every workload, untraced and traced, print a table, and optionally
write the full record (environment, inputs, metrics, exact counts)::

    python3 bench/run.py --all --seed 0 --seconds 30 --out bench/baseline.json

Untraced runs (``--trace 0``) launch the CLI as a child process, one at a
time, back to back for ``--seconds``, and report medians of wall time, CPU
time and peak RSS from ``os.wait4``, plus the median of trivial CLI calls
interleaved with them as set-up time.  Traced runs (``--trace 1``) call
``lzwmetrics.cli.main`` in-process, alternating traced and untraced calls;
they report per-layer self times and counts (see ``spans.py``) and the
tracing overhead.  Every invocation's output is checked; the run exits 1
when any check fails.  Inputs are generated from ``--seed`` before timing
starts, in a scratch directory under ``bench/.work`` removed afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import Tracer
from workloads import SETUP_ARGV, WORKLOADS, Prepared, check_invocation, check_oracles

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"

END_TO_END = {
    "wall_s": "s",
    "symbols_per_s": "symbols/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER = {
    "parse.s": "s",
    "parse.calls": "count",
    "parse.symbols": "count",
    "parse.phrases": "count",
    "parse.symbols_per_s": "symbols/s",
    "parse.useful_ratio": "ratio",
    "shuffle.s": "s",
    "shuffle.calls": "count",
    "digitize.s": "s",
    "digitize.calls": "count",
    "generate.s": "s",
    "generate.symbols_per_s": "symbols/s",
    "entropy.s": "s",
    "entropy.calls": "count",
    "analyze.self_s": "s",
    "analyze.calls": "count",
    "ingest.csv.s": "s",
    "ingest.csv.rows_per_s": "rows/s",
    "ingest.symbols.s": "s",
    "ingest.symbols.symbols_per_s": "symbols/s",
    "serialize.s": "s",
    "serialize.calls": "count",
    "cli.self_s": "s",
    "units.ok": "count",
    "units.failed": "count",
    "units.dropped": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# Per-invocation counts that must repeat exactly from run to run of one
# commit and seed; a later change may cite a difference in them as a count.
EXACT = [name for name, unit in PER_LAYER.items() if unit == "count"] + ["parse.useful_ratio"]

# One trivial CLI call takes about 70 ms and varies by about a fifth, so
# several are interleaved with every workload invocation.
SETUP_CALLS_PER_INVOCATION = 3

# A child that runs longer than this is killed and its units count as failed.
CHILD_TIMEOUT_S = 60


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    samples: dict[str, int]
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def line(self, units: dict[str, str]) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": self.metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )


@dataclass
class Invocation:
    status: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float = 0.0
    rss_mib: float = 0.0


def environment() -> dict:
    """Interpreter, numpy and CPU facts that every result is recorded with."""
    cpu_model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                caches[f"l{level}"] = (index / "size").read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        **dict(sorted(caches.items())),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class _Launcher:
    """Runs CLI children through ``launcher.py``, whose small RSS keeps
    each child's ``ru_maxrss`` its own."""

    def __init__(self, run_dir: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py")), str(CHILD_TIMEOUT_S)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=run_dir,
            env=_child_env(),
            text=True,
        )

    def __enter__(self) -> "_Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def run(self, argv: list[str]) -> Invocation:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        status, wall, cpu, maxrss_kib, stdout, stderr = json.loads(reply)
        return Invocation(status, stdout, stderr, wall, cpu, maxrss_kib / 1024.0)


class _Checker:
    """Checks every invocation and counts attempted and failed units."""

    def __init__(self, prep: Prepared, oracles) -> None:
        self.prep = prep
        self.oracles = oracles
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first_stdout: str | None = None
        self._oracle_problems: list[str] = []

    def check(self, inv: Invocation):
        outcome = check_invocation(self.prep, inv.status, inv.stdout, inv.stderr)
        if self._first_stdout is None:
            self._first_stdout = inv.stdout
            self._oracle_problems = check_oracles(self.prep, outcome.reports, self.oracles)
            self.problems += self._oracle_problems
        elif inv.stdout != self._first_stdout:
            outcome.problems.append("output differs from the first invocation")
        self.attempted += self.prep.units
        if outcome.problems or self._oracle_problems:
            self.failed += self.prep.units
        else:
            self.failed += outcome.failed
        self.problems += outcome.problems
        return outcome


def run_untraced(prep: Prepared, run_dir: Path, seconds: float, oracles) -> Result:
    checker = _Checker(prep, oracles)
    problems: list[str] = []
    runs: list[Invocation] = []
    setups: list[float] = []
    with _Launcher(run_dir) as launcher:
        # Warm-up: byte-compiles the package and fills the page cache.
        launcher.run(prep.argv)
        launcher.run(SETUP_ARGV)
        deadline = perf_counter() + seconds
        while not runs or perf_counter() < deadline:
            inv = launcher.run(prep.argv)
            checker.check(inv)
            runs.append(inv)
            for _ in range(SETUP_CALLS_PER_INVOCATION):
                setup = launcher.run(SETUP_ARGV)
                if setup.status != 0 or setup.stdout.count("\n") != 1:
                    problems.append(f"set-up call: exit {setup.status}")
                setups.append(setup.wall_s)
    wall = statistics.median(r.wall_s for r in runs)
    metrics = {
        "wall_s": wall,
        "symbols_per_s": prep.symbols / wall,
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.rss_mib for r in runs),
        "setup_s": statistics.median(setups),
    }
    problems = checker.problems + problems
    return Result(
        correct=not problems and checker.failed == 0,
        attempted=checker.attempted,
        failed=checker.failed,
        metrics=metrics,
        samples={**dict.fromkeys(metrics, len(runs)), "setup_s": len(setups)},
        problems=problems,
    )


def _call_main(argv: list[str], tracer: Tracer | None):
    import lzwmetrics.cli as cli

    out, err = io.StringIO(), io.StringIO()
    run = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            start = perf_counter()
            status = cli.main(list(argv))
            wall = perf_counter() - start
        else:
            with tracer.installed() as run:
                start = perf_counter()
                status = cli.main(list(argv))
                wall = perf_counter() - start
    return Invocation(status, out.getvalue(), err.getvalue(), wall), run


def _layer_metrics(prep: Prepared, summary: dict, outcome, wall: float) -> dict:
    s, calls, counts = summary["self_s"], summary["calls"], summary["counts"]

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    return {
        "parse.s": s["parse"],
        "parse.calls": calls["parse"],
        "parse.symbols": counts.get("parse.symbols", 0),
        "parse.phrases": counts.get("parse.phrases", 0),
        "parse.symbols_per_s": rate(counts.get("parse.symbols", 0), s["parse"]),
        "parse.useful_ratio": rate(prep.units * (1 + prep.surrogates), calls["parse"]),
        "shuffle.s": s["shuffle"],
        "shuffle.calls": calls["shuffle"],
        "digitize.s": s["digitize"],
        "digitize.calls": calls["digitize"],
        "generate.s": s["generate"],
        "generate.symbols_per_s": rate(counts.get("generate.symbols", 0), s["generate"]),
        "entropy.s": s["entropy"],
        "entropy.calls": calls["entropy"],
        "analyze.self_s": s["analyze"],
        "analyze.calls": calls["analyze"],
        "ingest.csv.s": s["ingest.csv"],
        "ingest.csv.rows_per_s": rate(counts.get("ingest.csv.rows", 0), s["ingest.csv"]),
        "ingest.symbols.s": s["ingest.symbols"],
        "ingest.symbols.symbols_per_s": rate(
            counts.get("ingest.symbols.symbols", 0), s["ingest.symbols"]
        ),
        "serialize.s": s["serialize"],
        "serialize.calls": calls["serialize"],
        "cli.self_s": s["cli"],
        "units.ok": outcome.ok,
        "units.failed": outcome.failed,
        "units.dropped": outcome.dropped,
        "trace.wall_s": wall,
    }


def run_traced(prep: Prepared, run_dir: Path, seconds: float, oracles) -> Result:
    checker = _Checker(prep, oracles)
    tracer = Tracer()
    problems: list[str] = []
    per_run: list[dict] = []
    untraced: list[float] = []
    self_sums: list[tuple[float, float]] = []
    cwd = os.getcwd()
    os.chdir(run_dir)
    try:
        _call_main(prep.argv, None)  # warm-up
        deadline = perf_counter() + seconds
        while len(per_run) < 2 or perf_counter() < deadline:
            # Alternate which of the pair runs first, so order effects cancel.
            for traced in (True, False) if len(per_run) % 2 else (False, True):
                inv, run = _call_main(prep.argv, tracer if traced else None)
                outcome = checker.check(inv)
                if not traced:
                    untraced.append(inv.wall_s)
                    continue
                summary = tracer.summary(run)
                per_run.append(_layer_metrics(prep, summary, outcome, inv.wall_s))
                self_sums.append((sum(summary["self_s"].values()), inv.wall_s))
    finally:
        os.chdir(cwd)
    metrics = {
        name: statistics.median(run[name] for run in per_run) for name in per_run[0]
    }
    metrics.update({name: per_run[0][name] for name in EXACT})
    overhead = metrics["trace.wall_s"] - statistics.median(untraced)
    metrics["trace.overhead_s"] = overhead
    for name in EXACT:
        values = {run[name] for run in per_run}
        if len(values) != 1:
            problems.append(f"{name} varies between runs: {sorted(values)}")
    # Self times partition the root span, so they sum to the traced wall
    # time up to the cost of the outermost wrapper.
    tolerance = max(abs(overhead), 1e-3)
    for total, wall in self_sums:
        if abs(total - wall) > tolerance:
            problems.append(f"self times sum to {total:.6f} s, traced wall {wall:.6f} s")
    problems = checker.problems + problems
    return Result(
        correct=not problems and checker.failed == 0,
        attempted=checker.attempted,
        failed=checker.failed,
        metrics=metrics,
        samples=dict.fromkeys(metrics, len(per_run)),
        problems=problems,
        notes=[f"untraced in-process samples: {len(untraced)}"]
        + [f"hook not found, its time counts as cli self time: {hook}" for hook in tracer.missing],
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool, oracles) -> tuple[Result, Prepared]:
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        prep = WORKLOADS[name].prepare(run_dir, seed)
        run = run_traced if trace else run_untraced
        result = run(prep, run_dir, seconds, oracles)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return result, prep


def _print_metrics(workload: str, result: Result, units: dict[str, str]) -> None:
    for name, unit in units.items():
        how = "exact" if name in EXACT else f"median of {result.samples[name]}"
        print(f"  {name} = {result.metrics[name]:.6g} {unit} ({how})")
    frac = result.failed / result.attempted
    print(f"  failed_frac = {frac:.6g} ratio ({result.failed} of {result.attempted} units)")
    for note in result.notes:
        print(f"  {note}")
    for problem in result.problems:
        print(f"CHECK FAILED [{workload}]: {problem}", file=sys.stderr)


def _describe(prep: Prepared) -> dict:
    return {"args": prep.argv, "inputs": prep.sizes(), "units": prep.units}


def run_all(seed: int, seconds: float, out: str | None, oracles) -> int:
    env = environment()
    print("environment", json.dumps(env))
    record = {"environment": env, "seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    for name, workload in WORKLOADS.items():
        plain, prep = run_workload(name, seed, seconds, False, oracles)
        print(f"{name}: lzwmetrics {' '.join(prep.argv)}")
        _print_metrics(name, plain, END_TO_END)
        traced, _ = run_workload(name, seed, seconds, True, oracles)
        _print_metrics(name, traced, PER_LAYER)
        ok = ok and plain.correct and traced.correct
        record["workloads"][name] = {
            "why": workload.why,
            **_describe(prep),
            "correct": plain.correct and traced.correct,
            "failed_frac": plain.failed / plain.attempted,
            "end_to_end": plain.metrics,
            "end_to_end_samples": plain.samples,
            "per_layer": traced.metrics,
            "per_layer_samples": traced.samples["trace.wall_s"],
            "exact_counts": {metric: traced.metrics[metric] for metric in EXACT},
        }
    if out:
        Path(out).write_text(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="with --all: write the full record here as JSON")
    args = parser.parse_args(argv)

    package, oracle_file = ROOT / "src" / "lzwmetrics" / "cli.py", ROOT / "tests" / "oracles.py"
    for needed in (package, oracle_file):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a full checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(oracle_file.parent)]
    import oracles

    if args.all:
        return run_all(args.seed, args.seconds, args.out, oracles)
    print("environment", json.dumps(environment()))
    result, prep = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), oracles)
    print(f"{args.workload}:", json.dumps(_describe(prep)))
    units = PER_LAYER if args.trace else END_TO_END
    _print_metrics(args.workload, result, units)
    print(result.line(units))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
