"""Command-line batch analyzer.

Feeds symbol files, CSV recordings, or synthetic generator output through
the metric pipeline and emits one report per unit (a whole input, or each
full fixed-length window of it) as JSON lines or CSV rows.  Symbol files
are UTF-8 and hold the ASCII digits ``0``..``A-1``, whitespace ignored.  CSV
files are UTF-8 too.  A plain numeric one takes a vectorized ``np.loadtxt``
read; quoted or oversized input, or any file that read rejects, falls back
to a ``csv.reader`` row parser with the same samples and messages.  CSV
load errors cite file line numbers, blank lines counted.  One leading
byte-order mark is dropped from every input file; error offsets still count
its bytes.  A directory input skips the ``--output`` file if it lies
inside, so a report is never read back as an input.

Unit order, and therefore output bytes, are deterministic: paths sort
lexicographically and windows by index.  Units stream: one input is loaded
and cut at a time, and each report is written and flushed as soon as its
unit is analyzed.  Failed units are logged to stderr in unit order, as they
happen, and the run continues.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import io
import json
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .entropy import Q_MAX_LIMIT
from .generators import ProcessSpec, generate, symmetric_binary_markov
from .metrics import MetricReport, analyze
from .sequence import (
    Alphabet,
    NumericSeries,
    SymbolSequence,
    binarize_median,
    digitize_quantiles,
)

__all__ = ["RunConfig", "ConfigError", "run", "emit_report", "main"]


class ConfigError(ValueError):
    """Contradictory or malformed run configuration; aborts before any unit."""


class GeneratorInput(NamedTuple):
    """A parsed ``--generate`` spec: its text (the report source), process and length."""

    label: str
    spec: ProcessSpec
    n: int


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for one batch run."""

    input_path: str | None
    generator: GeneratorInput | None
    input_format: str
    column: str | None
    digitizer: str
    digitizer_levels: int | None
    alphabet_size: int
    window_length: int | None
    q_max: int
    surrogates: int
    seed: int
    output_path: str | None
    output_format: str


# --- configuration -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lzwmetrics",
        description=(
            "Batch LZW complexity metrics for symbol files, CSV recordings, "
            "and synthetic processes."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="PATH", help="file or directory to analyze")
    source.add_argument(
        "--generate",
        metavar="SPEC",
        help=(
            "synthetic process instead of a file: bernoulli:p=0.5,n=100000 | "
            "markov:eps=0.1,n=1000000 | markov-file:PATH,n=... | "
            "periodic:pattern=01,n=... | constant:symbol=0,n=..."
        ),
    )
    parser.add_argument(
        "--format",
        choices=["symbols", "csv"],
        default="symbols",
        help="input file format (default: symbols)",
    )
    parser.add_argument(
        "--column",
        metavar="NAME_OR_INDEX",
        help="CSV column to read, by header name or 0-based index (default: 0)",
    )
    parser.add_argument(
        "--digitizer",
        metavar="median|quantiles:K|none",
        help="numeric-to-symbol mapping (default: median for csv input, none otherwise)",
    )
    parser.add_argument(
        "--alphabet-size",
        type=int,
        default=2,
        metavar="A",
        help="alphabet size for symbol-format input (default: 2)",
    )
    parser.add_argument(
        "--window",
        type=int,
        metavar="N",
        help="split each input into length-N windows; trailing partials are dropped",
    )
    parser.add_argument(
        "--qmax",
        type=int,
        default=4,
        metavar="Q",
        help="highest conditional-entropy order (default: 4)",
    )
    parser.add_argument(
        "--surrogates",
        type=int,
        default=10,
        metavar="S",
        help="shuffle surrogates per unit, 0 disables (default: 10)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed (default: 0)")
    parser.add_argument(
        "--output", metavar="PATH", help="write reports here instead of stdout"
    )
    parser.add_argument(
        "--output-format",
        choices=["json", "csv"],
        default="json",
        help="report serialization (default: json, one object per line)",
    )
    return parser


def _parse_digitizer(text: str) -> tuple[str, int | None]:
    if text == "median":
        return "median", None
    if text == "none":
        return "none", None
    if text.startswith("quantiles:"):
        raw = text.split(":", 1)[1]
        try:
            levels = int(raw)
        except ValueError:
            raise ConfigError(f"bad quantile level count {raw!r}") from None
        if levels < 2:
            raise ConfigError(f"quantile digitizer needs at least 2 levels, got {levels}")
        return "quantiles", levels
    raise ConfigError(f"unknown digitizer {text!r} (use median, quantiles:K, or none)")


def _parse_generator_spec(text: str) -> GeneratorInput:
    kind, sep, rest = text.partition(":")
    if not sep or not rest:
        raise ConfigError(f"generator spec needs parameters: {text!r}")
    parts = rest.split(",")
    table_path = None
    if kind == "markov-file":
        table_path, parts = parts[0], parts[1:]
    params: dict[str, str] = {}
    for part in parts:
        key, eq, value = part.partition("=")
        if not eq:
            raise ConfigError(f"bad generator parameter {part!r} in {text!r}")
        params[key.strip()] = value.strip()
    try:
        n = int(params.pop("n"))
        if kind == "bernoulli":
            spec = ProcessSpec.bernoulli(float(params.pop("p")))
        elif kind == "markov":
            spec = symmetric_binary_markov(float(params.pop("eps")))
        elif kind == "markov-file":
            table = np.loadtxt(table_path, delimiter=",", ndmin=2, encoding="utf-8-sig")
            spec = ProcessSpec.markov(table, alphabet_size=table.shape[1])
        elif kind == "periodic":
            spec = ProcessSpec.periodic([int(ch) for ch in params.pop("pattern")])
        elif kind == "constant":
            spec = ProcessSpec.constant(int(params.pop("symbol", "0")))
        else:
            raise ConfigError(f"unknown generator kind {kind!r}")
    except KeyError as exc:
        raise ConfigError(f"generator spec {text!r} is missing parameter {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read transition table: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"bad generator spec {text!r}: {exc}") from None
    if params:
        raise ConfigError(f"unused generator parameters {sorted(params)} in {text!r}")
    if n < 1:
        raise ConfigError(f"generator length must be at least 1, got {n}")
    return GeneratorInput(text, spec, n)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    digitizer_raw = args.digitizer
    if digitizer_raw is None:
        digitizer_raw = "none" if (args.generate or args.format == "symbols") else "median"
    kind, levels = _parse_digitizer(digitizer_raw)

    generator = None
    if args.generate is not None:
        if kind != "none":
            raise ConfigError("generated sequences are already symbolic; drop --digitizer")
        generator = _parse_generator_spec(args.generate)
    else:
        if args.format == "symbols" and kind != "none":
            raise ConfigError("digitizers apply to numeric input; symbol input needs --digitizer none")
        if args.format == "csv" and kind == "none":
            raise ConfigError("--digitizer none requires symbol-format input")
    if args.column is not None and (args.generate is not None or args.format != "csv"):
        raise ConfigError("--column only applies to csv input")
    if args.window is not None and args.window < 2:
        raise ConfigError(f"--window must be at least 2, got {args.window}")
    if args.alphabet_size < 2:
        raise ConfigError(f"--alphabet-size must be at least 2, got {args.alphabet_size}")
    if not 1 <= args.qmax <= Q_MAX_LIMIT:
        raise ConfigError(f"--qmax must lie in 1..{Q_MAX_LIMIT}, got {args.qmax}")
    if args.surrogates < 0:
        raise ConfigError(f"--surrogates must be non-negative, got {args.surrogates}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    # The output file is opened before the first input is read.
    if args.output and args.input and Path(args.output).resolve() == Path(args.input).resolve():
        raise ConfigError("--output would overwrite the --input file")

    return RunConfig(
        input_path=args.input,
        generator=generator,
        input_format=args.format,
        column=args.column,
        digitizer=kind,
        digitizer_levels=levels,
        alphabet_size=args.alphabet_size,
        window_length=args.window,
        q_max=args.qmax,
        surrogates=args.surrogates,
        seed=args.seed,
        output_path=args.output,
        output_format=args.output_format,
    )


# --- ingestion ---------------------------------------------------------------


def _utf8_error(path: str, exc: UnicodeDecodeError, offset: int = 0) -> ValueError:
    """The load error for an undecodable byte; ``exc.object`` starts at file ``offset``."""
    return ValueError(
        f"{path}: byte 0x{exc.object[exc.start]:02x} at offset {offset + exc.start} "
        "is not valid UTF-8"
    )


def _load_symbol_file(path: str, alphabet_size: int) -> SymbolSequence:
    raw = Path(path).read_bytes()
    try:
        # Not "utf-8-sig": its error positions skip the byte-order mark.
        text = "".join(raw.decode("utf-8").removeprefix("\ufeff").split())
    except UnicodeDecodeError as exc:
        raise _utf8_error(path, exc) from None
    if not text:
        raise ValueError(f"{path}: no symbols found")
    # One UTF-32 unit per code point; only ASCII '0'..'9' are symbol digits.
    values = np.frombuffer(text.encode("utf-32-le"), dtype="<u4").astype(np.int64)
    values -= ord("0")
    bad = np.flatnonzero((values < 0) | (values >= min(alphabet_size, 10)))
    if bad.size:
        first = int(bad[0])
        if not 0 <= values[first] <= 9:
            raise ValueError(f"{path}: character {text[first]!r} is not a symbol digit")
        raise ValueError(
            f"{path}: symbol {values[first]} outside alphabet of size {alphabet_size}"
        )
    return SymbolSequence(Alphabet(alphabet_size), values)


def _row_is_numeric(row: list[str]) -> bool:
    if not row:
        return False
    for cell in row:
        try:
            float(cell.strip())
        except ValueError:
            return False
    return True


def _resolve_column(column: str | None, header: list[str] | None, path: str, width: int) -> int:
    if column is None:
        return 0
    try:
        index = int(column)
    except ValueError:
        index = None
    if index is not None:
        if not 0 <= index < width:
            raise ValueError(f"{path}: column index {index} out of range (width {width})")
        return index
    if header is None:
        raise ValueError(f"{path}: column name {column!r} needs a header row")
    if column not in header:
        raise ValueError(f"{path}: no column named {column!r} in header {header}")
    return header.index(column)


def _csv_head(
    path: str, reader: Iterator[list[str]], column: str | None
) -> tuple[int, list[str], Iterator[list[str]]]:
    """Sniff the header and resolve the column of a CSV file.

    Returns the column index, the first data row, and the non-blank rows
    after it.  ``reader.line_num`` is then the file line on which the first
    data row ends, blank lines counted.
    """
    rows = (row for row in reader if any(cell.strip() for cell in row))
    first = next(rows, None)
    if first is None:
        raise ValueError(f"{path}: empty CSV file")
    header = None
    if not _row_is_numeric(first):
        header = [cell.strip() for cell in first]
        first = next(rows, None)
        if first is None:
            raise ValueError(f"{path}: CSV has a header but no data rows")
    return _resolve_column(column, header, path, width=len(first)), first, rows


_SCAN_BYTES = 1 << 17


def _plain_csv(path: str) -> bool:
    """Scan a CSV file's bytes in bounded chunks before it is parsed.

    Raises ValueError at the first byte that is not valid UTF-8.  Returns
    True when ``np.loadtxt`` reads the file as the csv module does: it holds
    no quote character, so every row is one line, and no line is longer
    than ``csv.field_size_limit()``, so the csv module rejects no field.
    """
    limit = csv.field_size_limit()
    decoder = codecs.getincrementaldecoder("utf-8")()
    quoted = False
    offset = 0
    last_newline = -1
    longest = 0  # the widest distance between newlines, the file edges counted
    with open(path, "rb") as fh:
        # Chunks are no longer than the limit, so only a line that crosses
        # a chunk boundary can exceed it.
        while chunk := fh.read(min(limit, _SCAN_BYTES)):
            pending = len(decoder.getstate()[0])
            try:
                decoder.decode(chunk)
            except UnicodeDecodeError as exc:
                raise _utf8_error(path, exc, offset - pending) from None
            quoted = quoted or b'"' in chunk
            first = chunk.find(b"\n")
            if first >= 0:
                longest = max(longest, offset + first - last_newline)
                last_newline = offset + chunk.rfind(b"\n")
            offset += len(chunk)
    try:
        decoder.decode(b"", final=True)
    except UnicodeDecodeError as exc:
        raise _utf8_error(path, exc, offset - len(exc.object)) from None
    longest = max(longest, offset - last_newline)
    return not quoted and longest <= limit


def _load_csv_series(path: str, column: str | None) -> NumericSeries:
    """Read one CSV column: one ``np.loadtxt`` call, or the row loop.

    The vectorized read runs only on files :func:`_plain_csv` passes, and
    after the same header sniff as the row loop.
    """
    if _plain_csv(path):
        try:
            with open(path, newline="", encoding="utf-8-sig") as fh:
                reader = csv.reader(fh)
                index, _, _ = _csv_head(path, reader, column)
            samples = np.loadtxt(
                path, delimiter=",", skiprows=reader.line_num - 1, usecols=index,
                comments=None, encoding="utf-8-sig", dtype=np.float64, ndmin=1,
            )
        except Exception:
            # loadtxt accepts less than float() does ("1_0", non-ASCII
            # digits, whitespace-only rows), and its errors read differently.
            # Whatever failed, the row loop rereads the file: it gives the
            # samples, or the load error with its own message.
            pass
        else:
            return NumericSeries(samples)
    return _read_csv_rows(path, column)


def _read_csv_rows(path: str, column: str | None) -> NumericSeries:
    """Read one CSV column a ``csv.reader`` row at a time.

    The reference reader: it takes every file the csv module and ``float``
    accept, and words every CSV load error.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        # Rows stream without being kept; reader.line_num is the file line
        # on which the current row ends, blank lines counted.
        try:
            index, first, rows = _csv_head(path, reader, column)
            values = []
            for row in chain([first], rows):
                if index >= len(row):
                    raise ValueError(f"{path}: line {reader.line_num} has no column {index}")
                cell = row[index].strip()
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: cannot parse sample {cell!r} at line {reader.line_num}"
                    ) from None
        except csv.Error as exc:
            # e.g. a field over csv.field_size_limit(); not a ValueError
            raise ValueError(f"{path}: {exc} at line {reader.line_num}") from None
    return NumericSeries(np.array(values, dtype=np.float64))


def _load(source: str, config: RunConfig) -> SymbolSequence | NumericSeries:
    if config.generator is not None:
        return generate(config.generator.spec, config.generator.n, config.seed)
    if config.input_format == "symbols":
        return _load_symbol_file(source, config.alphabet_size)
    return _load_csv_series(source, config.column)


def _to_symbols(data: SymbolSequence | NumericSeries, config: RunConfig) -> SymbolSequence:
    if config.digitizer == "median":
        return binarize_median(data)
    if config.digitizer == "quantiles":
        return digitize_quantiles(data, config.digitizer_levels)
    return data


def _windows(
    data: SymbolSequence | NumericSeries, w: int
) -> Iterator[SymbolSequence | NumericSeries | None]:
    """Full length-w windows of one input in order, then None for a partial rest."""
    numeric = isinstance(data, NumericSeries)
    values = data.samples if numeric else data.data
    for start in range(0, len(values) - w + 1, w):
        piece = values[start : start + w]
        yield NumericSeries(piece) if numeric else SymbolSequence(data.alphabet, piece)
    if len(values) % w:
        yield None


def _sources(config: RunConfig) -> list[str]:
    if config.generator is not None:
        return [config.generator.label]
    root = Path(config.input_path)
    if root.is_dir():
        # A report written into the input directory is not an input.
        output = Path(config.output_path).resolve() if config.output_path else None
        return sorted(
            str(child)
            for child in root.iterdir()
            if child.is_file() and child.resolve() != output
        )
    return [str(root)]


def _units(
    source: str, config: RunConfig
) -> Iterator[tuple[str, int, SymbolSequence | str | None]]:
    """Load one source and yield its units in order as (label, seed, sequence).

    In place of the sequence comes the error message if the source failed to
    load, or None for a dropped trailing partial window.  Windows are cut
    and digitized one at a time, and the loaded source is released when the
    generator finishes.
    """
    try:
        data = _load(source, config)
    except (OSError, ValueError) as exc:
        yield source, config.seed, str(exc)
        return
    if config.window_length is None:
        yield source, config.seed, _to_symbols(data, config)
        return
    for i, piece in enumerate(_windows(data, config.window_length)):
        # Digitization is per window: each analyzed unit gets its own
        # threshold, so every window attains the digitizer's entropy
        # guarantee on its own.
        unit = None if piece is None else _to_symbols(piece, config)
        yield f"{source}@{i}", config.seed + i, unit


# --- serialization -----------------------------------------------------------


# The report schema: attribute paths on MetricReport in output order.  The
# last path component is the JSON key and the CSV column; ``hq`` spreads
# over padded ``hq_1..hq_Q`` columns in CSV.
_FIELDS = [
    (path.rpartition(".")[2], attrgetter(path))
    for path in (
        "n", "alphabet_size", "c", "dict_size", "l_lzw_bits", "bound_bits",
        "rho0", "rho1_analytic", "rho1_surrogate", "rho2", "entropy.h0",
        "entropy.hq", "surrogate_count", "seed", "source", "warnings", "note",
    )
]


def _json_value(value: object) -> object:
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value


def _csv_cell(value: object) -> object:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return value


def _csv_line(cells: list) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="").writerow(cells)
    return buffer.getvalue()


def csv_header(q_max: int) -> str:
    """Header row matching :func:`emit_report`'s CSV flattening."""
    names = []
    for name, _ in _FIELDS:
        names += [f"hq_{q}" for q in range(1, q_max + 1)] if name == "hq" else [name]
    return _csv_line(names)


def emit_report(report: MetricReport, output_format: str = "json", q_max: int | None = None) -> str:
    """Serialize one report as a JSON line or a CSV data row.

    Floats carry 6 significant digits; None is ``null`` in JSON and empty in
    CSV.  The CSV row pads hq columns up to ``q_max`` (defaults to the
    report's own order) so every row in a run matches one header, and joins
    the warnings with ``"; "``.
    """
    if output_format == "json":
        return json.dumps({name: _json_value(get(report)) for name, get in _FIELDS})
    if output_format == "csv":
        if q_max is None:
            q_max = report.entropy.q_max
        cells = []
        for name, get in _FIELDS:
            value = get(report)
            if name == "hq":
                cells += [_csv_cell(v) for v in value] + [""] * (q_max - len(value))
            elif name == "warnings":
                cells.append("; ".join(value))
            else:
                cells.append(_csv_cell(value))
        return _csv_line(cells)
    raise ConfigError(f"unknown output format {output_format!r}")


# --- driver ------------------------------------------------------------------


def _report_line(unit: SymbolSequence | str, label: str, seed: int, config: RunConfig) -> str:
    """Analyze one unit from :func:`_units`; raises ValueError if it fails."""
    if isinstance(unit, str):
        raise ValueError(unit)
    q_eff = min(config.q_max, len(unit) - 1)
    if q_eff < 1:
        raise ValueError(f"sequence too short to analyze (n={len(unit)})")
    report = analyze(unit, q_max=q_eff, surrogates=config.surrogates, seed=seed)
    report = replace(report, source=label)
    return emit_report(report, config.output_format, q_max=config.q_max)


def run(config: RunConfig) -> int:
    """Execute one batch run; returns the process exit status.

    Each report line is written and flushed as soon as its unit is analyzed,
    so a later crash keeps every finished report.
    """
    sources = _sources(config)
    failed = dropped = 0
    output = open(config.output_path, "w") if config.output_path else nullcontext(sys.stdout)
    with output as out:
        if config.output_format == "csv":
            print(csv_header(config.q_max), file=out, flush=True)
        for source in sources:
            for label, seed, unit in _units(source, config):
                if unit is None:
                    dropped += 1
                    continue
                try:
                    line = _report_line(unit, label, seed, config)
                except ValueError as exc:
                    failed += 1
                    print(json.dumps({"source": label, "error": str(exc)}), file=sys.stderr)
                    continue
                print(line, file=out, flush=True)
    if config.window_length is not None:
        print(f"windowing: dropped {dropped} trailing partial window(s)", file=sys.stderr)
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
