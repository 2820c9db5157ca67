"""Command-line batch analyzer.

Feeds symbol files, CSV recordings, or synthetic generator output through
the metric pipeline and emits one report per unit (a whole input, or each
full fixed-length window of it) as JSON lines or CSV rows.  Symbol files
are UTF-8 and hold the ASCII digits ``0``..``A-1``, whitespace ignored; an
all-ASCII one is read as bytes, without a string of its text.  CSV files
are UTF-8 too.  A plain numeric one takes a vectorized ``np.loadtxt``
read; quoted or oversized input, or any file that read rejects, falls back
to a ``csv.reader`` row parser with the same samples and messages.  CSV
load errors cite file line numbers, blank lines counted.  One leading
byte-order mark is dropped from every input file; error offsets still count
its bytes.  A directory input skips the ``--output`` file if it lies
inside, so a report is never read back as an input.

Unit order, and therefore output bytes, are deterministic: paths sort
lexicographically and windows by index.  Units stream: one input is loaded
and cut at a time, and reports are written in unit order, each flushed as
soon as its unit and all earlier ones are done.  Failed units, a
``MemoryError`` in a unit's load, digitizing or analysis included, are
logged to stderr in unit order, and the run continues.  A closed stdout
ends the run with exit status 1.

Each unit is analyzed as tasks: a base report (parse and entropy profile)
and one description length per shuffle surrogate.  Once a run with
surrogates has parse work of 10^6 symbols (the sum of n * (1 + S) over its
units), the tasks go to a pool of forked worker processes, one per CPU the
process may run on, with that many units in flight; otherwise they run
in-process.  The parent only loads, cuts, digitizes, combines and
serializes, and the reports do not depend on the worker count.  A worker
that dies holding a task fails only that task's unit.  How workers start,
stop and carry tasks is the pool's own business (``_pool``, loaded only
when a run starts one).
"""

from __future__ import annotations

import argparse
import codecs
import csv
import io
import json
import os
import sys
import warnings
from collections import deque
from contextlib import ExitStack, nullcontext, suppress
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .entropy import Q_MAX_LIMIT
from .generators import ProcessSpec, generate, symmetric_binary_markov
from .metrics import MetricReport, _surrogate_bits, _surrogate_ratio, analyze
from .sequence import (
    Alphabet,
    NumericSeries,
    SymbolSequence,
    _symbol_dtype,
    digitize_quantiles,
)

__all__ = ["RunConfig", "ConfigError", "run", "emit_report", "main"]


class ConfigError(ValueError):
    """Contradictory or malformed run configuration; aborts before any unit."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for one batch run.  ``load`` reads one
    of the ``sources`` (in unit order: a ``--generate`` spec's text, or
    files) and raises OSError, ValueError or MemoryError if it fails."""

    sources: list[str]
    load: Callable[[str], SymbolSequence | NumericSeries]
    # Quantile levels of the digitizer (median is 2), None for symbol input.
    digitizer_levels: int | None
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


def _parse_digitizer(text: str) -> int | None:
    """Quantile levels of a ``--digitizer`` value; ``none`` gives None."""
    if text == "median":
        return 2
    if text == "none":
        return None
    if text.startswith("quantiles:"):
        raw = text.split(":", 1)[1]
        try:
            levels = int(raw)
        except ValueError:
            raise ConfigError(f"bad quantile level count {raw!r}") from None
        if levels < 2:
            raise ConfigError(f"quantile digitizer needs at least 2 levels, got {levels}")
        return levels
    raise ConfigError(f"unknown digitizer {text!r} (use median, quantiles:K, or none)")


def _symbol(text: str) -> int:
    """A generator's symbol, in ASCII digits as a symbol file writes it."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"symbol {text!r} is not written in ASCII digits")
    return int(text)


def _parse_generator_spec(text: str, output_path: str | None) -> tuple[ProcessSpec, int]:
    """The process and length of a ``--generate`` spec written to ``output_path``."""
    kind, sep, rest = text.partition(":")
    if kind not in ("bernoulli", "markov", "markov-file", "periodic", "constant"):
        raise ConfigError(f"unknown generator kind {kind!r}")
    if not sep or not rest:
        raise ConfigError(f"generator spec needs parameters: {text!r}")
    parts = rest.split(",")
    table_path = None
    if kind == "markov-file":
        # The path ends before the first later part with "=": it may hold commas.
        end = next((i for i in range(1, len(parts)) if "=" in parts[i]), len(parts))
        table_path, parts = ",".join(parts[:end]), parts[end:]
        if output_path and Path(output_path).resolve() == Path(table_path).resolve():
            raise ConfigError("--output would overwrite the markov-file table")
    params: dict[str, str] = {}
    for part in parts:
        key, eq, value = part.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"bad generator parameter {part!r} in {text!r}")
        if key in params:
            raise ConfigError(f"repeated generator parameter {key!r} in {text!r}")
        params[key] = value.strip()
    try:
        n = int(params.pop("n"))
        if kind == "bernoulli":
            spec = ProcessSpec.bernoulli(float(params.pop("p")))
        elif kind == "markov":
            spec = symmetric_binary_markov(float(params.pop("eps")))
        elif kind == "markov-file":
            with warnings.catch_warnings():
                # numpy warns of a file without rows; the check below says so
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(table_path, delimiter=",", ndmin=2, encoding="utf-8-sig")
            if not table.size:
                raise ValueError("transition table has no rows")
            spec = ProcessSpec.markov(table)
        elif kind == "periodic":
            spec = ProcessSpec.periodic([_symbol(ch) for ch in params.pop("pattern")])
        else:  # constant
            spec = ProcessSpec.periodic([_symbol(params.pop("symbol", "0"))])
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
    return spec, n


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.format is not None and args.generate is not None:
        raise ConfigError("--format only applies to file input")
    # None for generated input, which has no file format.
    input_format = None if args.generate is not None else args.format or "symbols"
    digitizer_raw = args.digitizer
    if digitizer_raw is None:
        digitizer_raw = "median" if input_format == "csv" else "none"
    levels = _parse_digitizer(digitizer_raw)

    if args.generate is not None:
        if levels is not None:
            raise ConfigError("generated sequences are already symbolic; drop --digitizer")
        spec, n = _parse_generator_spec(args.generate, args.output)
    else:
        if input_format == "symbols" and levels is not None:
            raise ConfigError("digitizers apply to numeric input; symbol input needs --digitizer none")
        if input_format == "csv" and levels is None:
            raise ConfigError("--digitizer none requires symbol-format input")
    if args.column is not None and input_format != "csv":
        raise ConfigError("--column only applies to csv input")
    if args.alphabet_size is not None and input_format != "symbols":
        raise ConfigError("--alphabet-size only applies to symbol-format input")
    alphabet_size = 2 if args.alphabet_size is None else args.alphabet_size
    if args.window is not None and args.window < 2:
        raise ConfigError(f"--window must be at least 2, got {args.window}")
    if alphabet_size < 2:
        raise ConfigError(f"--alphabet-size must be at least 2, got {alphabet_size}")
    if not 1 <= args.qmax <= Q_MAX_LIMIT:
        raise ConfigError(f"--qmax must lie in 1..{Q_MAX_LIMIT}, got {args.qmax}")
    if args.surrogates < 0:
        raise ConfigError(f"--surrogates must be non-negative, got {args.surrogates}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    # The output file is opened before the first input is read.
    if args.output and args.input and Path(args.output).resolve() == Path(args.input).resolve():
        raise ConfigError("--output would overwrite the --input file")

    # The loaders are looked up in this module when a source loads, so a
    # loader wrapped after this point still sees every call.
    if args.generate is not None:
        sources, load = [args.generate], lambda _: generate(spec, n, args.seed)
    else:
        sources = _sources(args.input, args.output)
        if input_format == "symbols":
            load = lambda path: _load_symbol_file(path, alphabet_size)
        else:
            load = lambda path: _load_csv_series(path, args.column)
    return RunConfig(
        sources=sources,
        load=load,
        digitizer_levels=levels,
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


# The tables of the one bytes.translate over a symbol file: "0".."9" become
# 0..9, every other byte b becomes b | 0x80, past every digit, and the ASCII
# whitespace that str.split() drops is deleted.
_SYMBOLS = bytes(b - 0x30 if 0x30 <= b <= 0x39 else b | 0x80 for b in range(256))
_WHITESPACE = bytes(b for b in range(0x80) if chr(b).isspace())


def _load_symbol_file(path: str, alphabet_size: int) -> SymbolSequence:
    """Read a symbol file: ASCII as bytes, anything else as UTF-8 text.

    Both reads drop the whitespace ``str.split()`` drops.  An ASCII file
    goes through one ``bytes.translate`` and never becomes a string: at
    most 2 bytes of memory per file byte at once, 3 where A > 256.  A file
    with any byte from 0x80 up, a byte-order mark included, is decoded, so
    undecodable bytes and non-ASCII characters get their messages; its
    text drops one leading byte-order mark and takes the same translate.
    """
    # Not np.fromfile, which fails on a pipe: it asks for the file position.
    raw = Path(path).read_bytes()
    text = None
    if not raw.isascii():
        try:
            # Not "utf-8-sig": its error positions skip the byte-order mark.
            text = "".join(raw.decode("utf-8").removeprefix("\ufeff").split())
        except UnicodeDecodeError as exc:
            raise _utf8_error(path, exc) from None
        # One byte per character: every non-ASCII character becomes "?",
        # which is no symbol digit either.
        raw = text.encode("ascii", "replace")
    values = np.frombuffer(raw.translate(_SYMBOLS, _WHITESPACE), dtype=np.uint8)
    del raw
    if not values.size:
        raise ValueError(f"{path}: no symbols found")
    limit = min(alphabet_size, 10)
    if values.max() >= limit:
        first = int(np.argmax(values >= limit))
        if values[first] > 9:
            char = text[first] if text else chr(values[first] & 0x7F)
            raise ValueError(f"{path}: character {char!r} is not a symbol digit")
        raise ValueError(
            f"{path}: symbol {values[first]} outside alphabet of size {alphabet_size}"
        )
    # Checked above, and cast only where A > 256 stores symbols as uint16.
    del text
    values = values.astype(_symbol_dtype(alphabet_size), copy=False)
    return SymbolSequence._own(Alphabet(alphabet_size), values)


def _row_is_numeric(row: list[str]) -> bool:
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


def _plain_csv(path: str) -> int:
    """Scan a CSV file's bytes in bounded chunks before it is parsed.

    Raises ValueError at the first byte that is not valid UTF-8.  Returns
    a bound on the file's line count, and so on its rows, when
    ``np.loadtxt`` reads the file as the csv module does: it holds no quote
    character, so every row is one line, and no line is longer than
    ``csv.field_size_limit()``, so the csv module rejects no field.
    Otherwise returns 0.
    """
    limit = csv.field_size_limit()
    decoder = codecs.getincrementaldecoder("utf-8")()
    quoted = False
    offset = 0
    last_newline = -1
    longest = 0  # the widest distance between newlines, the file edges counted
    lines = 1  # line ends ("\r\n" counts twice), plus the line after the last
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
            # numpy counts bytes several times faster than bytes.count.
            codes = np.frombuffer(chunk, dtype=np.uint8)
            lines += int(np.count_nonzero(codes == ord("\n")))
            if b"\r" in chunk:
                lines += int(np.count_nonzero(codes == ord("\r")))
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
    return lines if not quoted and longest <= limit else 0


def _load_csv_series(path: str, column: str | None) -> NumericSeries:
    """Read one CSV column: one ``np.loadtxt`` call, or the row loop.

    The vectorized read runs only on files :func:`_plain_csv` passes, and
    after the same header sniff as the row loop.  A NaN sample too sends
    the file to the row loop, which cites its line.  Either read's array
    becomes the series as it is, without a second copy.  ``np.loadtxt``
    gets the scan's line bound as ``max_rows``, which lets it size its
    array once instead of growing it.
    """
    if lines := _plain_csv(path):
        try:
            with open(path, newline="", encoding="utf-8-sig") as fh:
                reader = csv.reader(fh)
                index, _, _ = _csv_head(path, reader, column)
            with warnings.catch_warnings():
                # With max_rows set, numpy warns that blank lines are not
                # rows; the bound already counts them.
                warnings.simplefilter("ignore", UserWarning)
                samples = np.loadtxt(
                    path, delimiter=",", skiprows=reader.line_num - 1, usecols=index,
                    comments=None, encoding="utf-8-sig", dtype=np.float64, ndmin=1,
                    max_rows=lines,
                )
            # min is NaN if any sample is, and needs no mask of n bools.
            if samples.size and not np.isnan(samples.min()):
                return NumericSeries._own(samples)
        except Exception:
            # loadtxt accepts less than float() does ("1_0", non-ASCII
            # digits, whitespace-only rows), and its errors read differently.
            # Whatever failed, the row loop rereads the file: it gives the
            # samples, or the load error with its own message.
            pass
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
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: cannot parse sample {cell!r} at line {reader.line_num}"
                    ) from None
                if value != value:  # NaN, the one float unequal to itself
                    raise ValueError(f"{path}: NaN sample {cell!r} at line {reader.line_num}")
                values.append(value)
        except csv.Error as exc:
            # e.g. a field over csv.field_size_limit(); not a ValueError
            raise ValueError(f"{path}: {exc} at line {reader.line_num}") from None
    # _csv_head gave at least one row, and the loop rejects NaN.
    return NumericSeries._own(np.array(values, dtype=np.float64))


# What fails one unit, not the run: a bad, unreadable or oversized input.
_UNIT_ERRORS = (OSError, ValueError, MemoryError)


def _to_symbols(data: SymbolSequence | NumericSeries, config: RunConfig) -> SymbolSequence | str:
    """A unit's symbols, digitized if numeric, or the error digitizing gave."""
    if config.digitizer_levels is None:
        return data
    try:
        return digitize_quantiles(data, config.digitizer_levels)
    except _UNIT_ERRORS as exc:
        return _unit_error(exc)


def _windows(
    data: SymbolSequence | NumericSeries, w: int
) -> Iterator[SymbolSequence | NumericSeries | None]:
    """Full length-w windows of one input in order, then None for a partial
    rest.  A numeric window is a read-only view of the input, which only
    digitizing reads.  A symbol window is the analyzed unit itself, so it
    gets its own copy: a view would keep the whole input alive while the
    next one loads."""
    numeric = isinstance(data, NumericSeries)
    values = data.samples if numeric else data.data
    for start in range(0, len(values) - w + 1, w):
        piece = values[start : start + w]
        if numeric:
            yield NumericSeries._own(piece)
        else:
            yield SymbolSequence._own(data.alphabet, piece.copy())
    if len(values) % w:
        yield None


def _sources(input_path: str, output_path: str | None) -> list[str]:
    """The ``--input`` file, or a directory's files in sorted order."""
    root = Path(input_path)
    if root.is_dir():
        # A report written into the input directory is not an input.
        output = Path(output_path).resolve() if output_path else None
        return sorted(
            str(child)
            for child in root.iterdir()
            if child.is_file() and child.resolve() != output
        )
    return [str(root)]


def _unit_error(exc: Exception) -> str:
    """The failure record's message for an error that fails one unit."""
    # A MemoryError raised by the interpreter carries no message.
    if isinstance(exc, MemoryError) and not str(exc):
        return "out of memory"
    return str(exc)


def _units(
    source: str, config: RunConfig
) -> Iterator[tuple[str, SymbolSequence | str | None]]:
    """Load one source and yield its units in order as (label, sequence).

    In place of the sequence comes the error message if the source failed to
    load or the unit to digitize, or None for a dropped trailing partial
    window.  Windows are cut and digitized one at a time, and the loaded
    source is released when the generator finishes.
    """
    try:
        data = config.load(source)
    except _UNIT_ERRORS as exc:
        yield source, _unit_error(exc)
        return
    if config.window_length is None:
        yield source, _to_symbols(data, config)
        return
    for i, piece in enumerate(_windows(data, config.window_length)):
        # Digitization is per window: each analyzed unit gets its own
        # threshold, so every window attains the digitizer's entropy
        # guarantee on its own.
        unit = None if piece is None else _to_symbols(piece, config)
        yield f"{source}@{i}", unit


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
    the warnings with ``"; "``.  A ``q_max`` below the report's order would
    make the row wider than its header, so it raises ValueError.
    """
    if output_format == "json":
        return json.dumps({name: _json_value(get(report)) for name, get in _FIELDS})
    if output_format == "csv":
        if q_max is None:
            q_max = report.entropy.q_max
        if q_max < report.entropy.q_max:
            raise ValueError(
                f"CSV columns up to q_max {q_max} cannot hold a report "
                f"of order {report.entropy.q_max}"
            )
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


# A run stays in-process until its parse work, the sum of n * (1 + S) over the
# units so far, reaches this many symbols.  Starting and stopping a pool of
# two fork workers adds 9 to 21 ms to a run and no memory (peak RSS -0.3 MiB,
# n = 2,000, S = 10), and this much work is where the pool breaks even: on
# Bernoulli(0.5) input with S = 9, the pool's wall time was -10 and +4 ms at
# 10^6 symbols and -61 and -49 ms at 2*10^6 (median gaps of 12 alternating
# pairs, two sets; 2-core Xeon host, Python 3.11, numpy 2.4).
_POOL_MIN_SYMBOLS = 10**6


def _workers() -> int:
    """Worker processes for a run with surrogates: the CPUs this process may
    run on, or 1 (in-process) where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _base_report(unit: SymbolSequence, q_max: int, seed: int) -> MetricReport:
    """A unit's report without surrogates: its parse and entropy profile."""
    # A pool sends this function by name, and it looks ``analyze`` up when
    # it runs, so a wrapped ``analyze`` need not pickle.
    return analyze(unit, q_max=q_max, surrogates=0, seed=seed)


def _submit_unit(
    unit: SymbolSequence | str, seed: int, config: RunConfig, submit: Callable
) -> list[Callable] | str:
    """Submit one unit from :func:`_units` as tasks: its base report, then
    each surrogate's description length.

    Returns the tasks' result getters in that order, or the error message
    of a unit that cannot be analyzed.
    """
    if isinstance(unit, str):
        return unit
    q_eff = min(config.q_max, len(unit) - 1)
    if q_eff < 1:
        return f"sequence too short to analyze (n={len(unit)})"
    surrogates = range(1, config.surrogates + 1)
    return [submit(_base_report, unit, q_eff, seed)] + [
        submit(_surrogate_bits, unit, seed, k) for k in surrogates
    ]


def _report_line(label: str, tasks: list[Callable], config: RunConfig) -> str:
    """Combine one unit's task results into its report line, as
    ``analyze(unit, surrogates=S)`` would report it; raises ValueError or
    MemoryError if the unit fails, or ChildProcessError if a pool worker
    died holding one of its tasks."""
    report, *lengths = (get() for get in tasks)
    report = replace(report, source=label)
    if lengths:
        ratio = _surrogate_ratio(report.l_lzw_bits, lengths)
        report = replace(report, rho1_surrogate=ratio, surrogate_count=len(lengths))
    return emit_report(report, config.output_format, q_max=config.q_max)


def run(config: RunConfig) -> int:
    """Execute one batch run; returns the process exit status.

    Units are numbered across all inputs, failed and dropped ones included,
    and unit k of the run gets seed ``config.seed + k``.  Reports and
    failure records are written in unit order, each flushed as soon as its
    unit and all earlier ones are done, so a later crash keeps every
    finished report.  Once the run's parse work reaches
    ``_POOL_MIN_SYMBOLS``, a run with surrogates hands its tasks to
    :func:`_workers` forked processes and keeps that many units in flight;
    otherwise every task runs in-process, one unit at a time.
    """
    failed = dropped = 0
    try:
        output = nullcontext(sys.stdout)
        if config.output_path:
            output = open(config.output_path, "w", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        print(f"error: cannot open --output {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2

    workers = _workers() if config.surrogates else 1
    # Until a pool starts, a "submitted" task is a partial, run when its
    # result is asked for.
    submit, in_flight, work = partial, 1, 0
    pending: deque[tuple[str, list[Callable] | str | None]] = deque()
    with output as out, ExitStack() as pool:

        def settle(label: str, outcome: list[Callable] | str | None) -> None:
            nonlocal failed, dropped
            if outcome is None:
                dropped += 1
                return
            if not isinstance(outcome, str):
                try:
                    line = _report_line(label, outcome, config)
                except (ValueError, MemoryError, ChildProcessError) as exc:
                    outcome = _unit_error(exc)
                else:
                    print(line, file=out, flush=True)
                    return
            failed += 1
            print(json.dumps({"source": label, "error": outcome}), file=sys.stderr)

        if config.output_format == "csv":
            print(csv_header(config.q_max), file=out, flush=True)
        units = chain.from_iterable(_units(source, config) for source in config.sources)
        for seed, (label, unit) in enumerate(units, config.seed):
            # Parse work is counted until a pool starts.
            if isinstance(unit, SymbolSequence) and in_flight < workers:
                work += len(unit) * (1 + config.surrogates)
                if work >= _POOL_MIN_SYMBOLS:
                    from ._pool import ForkPool  # only a run that starts a pool loads it

                    submit, in_flight = pool.enter_context(ForkPool(workers)).submit, workers
            outcome = None if unit is None else _submit_unit(unit, seed, config, submit)
            pending.append((label, outcome))
            while len(pending) >= in_flight:
                settle(*pending.popleft())
        while pending:
            settle(*pending.popleft())
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
    try:
        return run(config)
    except BrokenPipeError:
        # The reader of the reports has gone (``lzwmetrics ... | head``).
        # Pointing stdout at the null device keeps the interpreter's final
        # flush of the unwritten line from failing again.
        with suppress(OSError):
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
