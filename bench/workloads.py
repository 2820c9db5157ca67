"""Benchmark workloads: seeded input generation, CLI arguments and output checks.

Each workload writes its inputs into a run directory from the benchmark's
seed alone, so two commits measured with the same seed read identical bytes.
The CLI receives only those files (or, for the generator workload, the
generator spec and the seed).  Output checks never pin surrogate values,
which change when surrogate seeding changes; they pin unit counts, sizes,
and one unit per workload against the independent oracles in
``tests/oracles.py``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# rho0 of a Markov(0.1) sample of 10^6 symbols is about 0.603: LZW approaches
# the entropy rate h(0.1) = 0.469 from above, slowly.  A correct parse lies
# above the rate and well within this many bits per symbol of it.
RHO0_MARGIN_BITS = 0.2

# Reported floats carry 6 significant digits.
REPORT_REL_TOL = 1e-5


@dataclass
class Prepared:
    """One workload's inputs on disk plus everything needed to check a run."""

    argv: list[str]
    files: int
    bytes: int
    symbols: int  # input symbols (or CSV rows) analyzed per invocation
    units: int
    unit_n: int
    alphabet: int
    surrogates: int
    output_format: str
    oracle_source: str  # source label of the unit checked against the oracles
    oracle_symbols: np.ndarray = field(repr=False)
    rho0_bounds: tuple[float, float] | None = None

    def sizes(self) -> dict:
        return {"files": self.files, "bytes": self.bytes, "symbols": self.symbols}


SETUP_ARGV = ["--generate", "constant:symbol=0,n=2", "--qmax", "1", "--surrogates", "0"]


def _binary_entropy(p: float) -> float:
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _prepare_markov(run_dir: Path, seed: int) -> Prepared:
    # The CLI generates this input itself from the seed; the benchmark
    # regenerates it through the library only to feed the parse oracle.
    from lzwmetrics.generators import generate, symmetric_binary_markov

    eps, n = 0.1, 1_000_000
    spec = f"markov:eps={eps},n={n}"
    symbols = generate(symmetric_binary_markov(eps), n, seed).data
    rate = _binary_entropy(eps)
    return Prepared(
        argv=["--generate", spec, "--surrogates", "10", "--qmax", "4", "--seed", str(seed)],
        files=0,
        bytes=0,
        symbols=n,
        units=1,
        unit_n=n,
        alphabet=2,
        surrogates=10,
        output_format="json",
        oracle_source=spec,
        oracle_symbols=symbols,
        rho0_bounds=(rate, rate + RHO0_MARGIN_BITS),
    )


def _write(path: Path, text: str) -> int:
    # Flushed to disk here so that no write-back of the inputs overlaps timing.
    with open(path, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    return len(text)


def _ar1(rng: np.random.Generator, n: int, phi: float) -> np.ndarray:
    noise = rng.standard_normal(n).tolist()
    out = [0.0] * n
    x = 0.0
    for i, e in enumerate(noise):
        x = phi * x + e
        out[i] = x
    return np.array(out)


def _quantile_symbols(samples: np.ndarray, levels: int) -> np.ndarray:
    # The documented quantiles:K digitizer: k/K empirical quantiles as cut
    # points, symbol = number of cut points strictly below the sample.
    cuts = np.quantile(samples, np.arange(1, levels) / levels)
    return np.searchsorted(cuts, samples, side="left")


def _prepare_csv(run_dir: Path, seed: int) -> Prepared:
    files, rows, window, levels = 4, 250_000, 10_000, 8
    rng = np.random.default_rng(seed)
    folder = run_dir / "csv"
    folder.mkdir()
    total_bytes = 0
    first_window = None
    for f in range(files):
        cells = [f"{v:.6f}" for v in _ar1(rng, rows, 0.9)]
        text = "t,value\n" + "".join(f"{i},{c}\n" for i, c in enumerate(cells))
        total_bytes += _write(folder / f"rec{f}.csv", text)
        if f == 0:
            first_window = np.array(cells[:window], dtype=np.float64)
    return Prepared(
        argv=[
            "--input", "csv", "--format", "csv", "--column", "value",
            "--digitizer", f"quantiles:{levels}", "--window", str(window),
            "--surrogates", "0", "--qmax", "6", "--output-format", "csv",
            "--seed", str(seed),
        ],
        files=files,
        bytes=total_bytes,
        symbols=files * rows,
        units=files * rows // window,
        unit_n=window,
        alphabet=levels,
        surrogates=0,
        output_format="csv",
        oracle_source=str(Path("csv") / "rec0.csv") + "@0",
        oracle_symbols=_quantile_symbols(first_window, levels),
    )


def _correlated_symbols(rng: np.random.Generator, n: int, alphabet: int, stay: float) -> np.ndarray:
    # Each symbol repeats its predecessor with probability `stay`, otherwise
    # it is drawn uniformly: short-range correlation over the full alphabet.
    fresh = rng.integers(0, alphabet, n)
    redraw = rng.random(n) >= stay
    redraw[0] = True
    last = np.maximum.accumulate(np.where(redraw, np.arange(n), 0))
    return fresh[last]


def _prepare_symbols(run_dir: Path, seed: int) -> Prepared:
    files, n, alphabet, line = 8, 500_000, 4, 100
    rng = np.random.default_rng(seed)
    folder = run_dir / "symbols"
    folder.mkdir()
    total_bytes = 0
    first = None
    for f in range(files):
        symbols = _correlated_symbols(rng, n, alphabet, 0.6)
        digits = "".join(map(str, symbols.tolist()))
        text = "".join(digits[i : i + line] + "\n" for i in range(0, n, line))
        total_bytes += _write(folder / f"s{f}.txt", text)
        if f == 0:
            first = symbols
    return Prepared(
        argv=[
            "--input", "symbols", "--alphabet-size", str(alphabet),
            "--surrogates", "2", "--qmax", "8", "--seed", str(seed),
        ],
        files=files,
        bytes=total_bytes,
        symbols=files * n,
        units=files,
        unit_n=n,
        alphabet=alphabet,
        surrogates=2,
        output_format="json",
        oracle_source=str(Path("symbols") / "s0.txt"),
        oracle_symbols=first,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[Path, int], Prepared]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "markov-surrogates",
            "one 10^6-symbol Markov(0.1) sequence with 10 surrogates: parse, shuffle "
            "and generate dominate; no file ingest",
            _prepare_markov,
        ),
        Workload(
            "csv-windows",
            "4 CSV recordings of 250k AR(1) rows in 100 windows without surrogates: "
            "CSV ingest and per-unit overhead dominate, parse is small",
            _prepare_csv,
        ),
        Workload(
            "symbols-dir",
            "8 symbol files of 500k symbols over A=4 with 2 surrogates: mid-size parses, "
            "per-character ingest, all inputs held at once",
            _prepare_symbols,
        ),
    )
}


# --- output checks ---------------------------------------------------------


@dataclass
class Outcome:
    """What one CLI invocation did to its units, and which checks it failed."""

    ok: int
    failed: int
    dropped: int
    problems: list[str]
    reports: list[dict]


def _parse_reports(stdout: str, output_format: str) -> list[dict]:
    if output_format == "json":
        return [json.loads(line) for line in stdout.splitlines() if line.strip()]
    rows = list(csv.DictReader(io.StringIO(stdout)))
    for row in rows:
        for key in ("n", "alphabet_size", "c", "surrogate_count"):
            row[key] = int(row[key])
        for key in ("l_lzw_bits", "rho0", "h0", "rho1_surrogate"):
            row[key] = float(row[key]) if row[key] != "" else None
    return rows


def _dropped(stderr: str) -> int:
    for line in stderr.splitlines():
        if line.startswith("windowing: dropped "):
            return int(line.split()[2])
    return 0


def check_invocation(prep: Prepared, status: int, stdout: str, stderr: str) -> Outcome:
    """Check one invocation's exit status, unit count and per-report shape."""
    problems: list[str] = []
    if status != 0:
        problems.append(f"exit status {status}")
    failed_units = sum(1 for line in stderr.splitlines() if line.startswith("{"))
    dropped = _dropped(stderr)
    if dropped:
        problems.append(f"{dropped} dropped window(s)")
    try:
        reports = _parse_reports(stdout, prep.output_format)
    except (ValueError, KeyError) as exc:
        problems.append(f"unparsable output: {exc}")
        reports = []
    if len(reports) != prep.units:
        problems.append(f"{len(reports)} reports, expected {prep.units}")
    for r in reports:
        shape = (r["n"], r["alphabet_size"], r["surrogate_count"])
        if shape != (prep.unit_n, prep.alphabet, prep.surrogates):
            problems.append(f"{r['source']}: (n, A, S) = {shape}")
        if (r["rho1_surrogate"] is None) != (prep.surrogates == 0):
            problems.append(f"{r['source']}: rho1_surrogate {r['rho1_surrogate']}")
    return Outcome(len(reports), failed_units, dropped, problems, reports)


def _close(reported: float, expected: float) -> bool:
    return abs(reported - expected) <= REPORT_REL_TOL * abs(expected) + 1e-12


def check_oracles(prep: Prepared, reports: list[dict], oracles) -> list[str]:
    """Check one unit's c, l_lzw_bits and h0 against the brute-force oracles."""
    matches = [r for r in reports if r["source"] == prep.oracle_source]
    if len(matches) != 1:
        return [f"no single report for {prep.oracle_source}"]
    report = matches[0]
    symbols = prep.oracle_symbols.tolist()
    codes = oracles.naive_lzw_codes(symbols, prep.alphabet)
    bits = oracles.footnote_bits(codes)
    h0 = oracles.gram_entropy_bits(symbols, 1)
    problems = []
    if report["c"] != len(codes):
        problems.append(f"c = {report['c']}, oracle {len(codes)}")
    if not _close(report["l_lzw_bits"], bits):
        problems.append(f"l_lzw_bits = {report['l_lzw_bits']}, oracle {bits}")
    if not _close(report["h0"], h0):
        problems.append(f"h0 = {report['h0']}, oracle {h0}")
    if prep.rho0_bounds is not None:
        lo, hi = prep.rho0_bounds
        if not lo < report["rho0"] <= hi:
            problems.append(f"rho0 = {report['rho0']} outside ({lo:.4f}, {hi:.4f}]")
    return problems
