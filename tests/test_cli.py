import io
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import lzwmetrics
from lzwmetrics import (
    Alphabet,
    NumericSeries,
    SymbolSequence,
    analyze,
    _pool,
    cli,
    generate,
    metrics,
    symmetric_binary_markov,
)
from lzwmetrics.cli import csv_header, emit_report, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


def child_env():
    """Environment in which a child Python imports the package this process imported."""
    paths = [str(Path(lzwmetrics.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def python_child(code, *argv, env=(), **kwargs):
    """Start ``python -c code argv...`` on the package this process imported,
    with the variables in ``env`` added to this process's environment."""
    return subprocess.Popen(
        [sys.executable, "-c", code, *argv], env=dict(child_env(), **dict(env)), **kwargs
    )


def forced_pool(monkeypatch, workers):
    """Make every run with surrogates start a pool of ``workers`` at once;
    returns the worker counts of the pools started."""
    started = []
    real_pool = cli._fork_pool

    def spy(n):
        started.append(n)
        return real_pool(n)

    monkeypatch.setattr(cli, "_POOL_MIN_SYMBOLS", 0)
    monkeypatch.setattr(cli, "_workers", lambda: workers)
    monkeypatch.setattr(cli, "_fork_pool", spy)
    return started


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def surrogate_bits_ending_worker(death, unit_seed, surrogate, unit, seed, k):
    """``_surrogate_bits``, except that the worker computing surrogate
    ``surrogate`` of the unit seeded ``unit_seed`` ends: ``os._exit(death)``
    for a number, or ``death`` sent to itself for a signal."""
    if (seed, k) == (unit_seed, surrogate):
        if isinstance(death, signal.Signals):
            os.kill(os.getpid(), death)
        os._exit(death)
    return metrics._surrogate_bits(unit, seed, k)


def load_after(padding, reduced):
    """Rebuild an object from its ``__reduce__`` value ``reduced``; the
    padding only comes before it in the pickle."""
    rebuild, args = reduced
    return rebuild(*args)


class ExitBeforeReading(io.BufferedReader):
    """A task pipe whose worker exits with status 3 when it is about to read
    a buffer of ``size`` bytes."""

    size = 1 << 22

    def readinto(self, buffer):
        if len(buffer) == self.size:
            os._exit(3)
        return super().readinto(buffer)


class TestSymbolInput:
    def test_hand_traced_file(self, tmp_path, capsys):
        path = tmp_path / "bits.txt"
        path.write_text("0110")
        code, out, err = run_cli(
            capsys, "--input", str(path), "--surrogates", "0", "--qmax", "1"
        )
        assert code == 0
        (report,) = json_lines(out)
        assert report["c"] == 4
        assert report["l_lzw_bits"] == 4.0
        assert report["rho0"] == 1.0
        assert report["source"] == str(path)
        assert report["note"] == "l_lzw is an upper bound on algorithmic description length"

    def test_whitespace_is_ignored(self, tmp_path, capsys):
        path = tmp_path / "bits.txt"
        path.write_text("01\n10 0\n")
        code, out, _ = run_cli(capsys, "--input", str(path), "--surrogates", "0", "--qmax", "1")
        assert code == 0
        assert json_lines(out)[0]["n"] == 5

    def test_out_of_alphabet_symbol_is_unit_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0120")
        code, out, err = run_cli(capsys, "--input", str(path), "--surrogates", "0")
        assert code == 1
        assert out == ""
        (record,) = json_lines(err)
        assert record["source"] == str(path)
        assert "symbol 2" in record["error"]

    @pytest.mark.parametrize(
        "text", ["0\u00b21", "01\u06631"], ids=["superscript-two", "arabic-indic-three"]
    )
    def test_non_ascii_digit_is_unit_error(self, tmp_path, capsys, text):
        # both pass str.isdigit, but only ASCII 0..9 are symbol digits
        path = tmp_path / "symbols.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(
            capsys, "--input", str(path), "--alphabet-size", "4", "--surrogates", "0", "--qmax", "1"
        )
        assert code == 1
        assert out == ""
        (record,) = json_lines(err)
        assert record["error"] == f"{path}: character {text[-2]!r} is not a symbol digit"

    def test_undecodable_byte_is_unit_error_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "symbols.txt"
        path.write_bytes(b"01\xff10")
        code, out, err = run_cli(capsys, "--input", str(path), "--surrogates", "0", "--qmax", "1")
        assert code == 1
        assert out == ""
        (record,) = json_lines(err)
        assert record["error"] == f"{path}: byte 0xff at offset 2 is not valid UTF-8"

    def test_leading_byte_order_mark_is_dropped(self, tmp_path, capsys):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf0110100")
        code, out, err = run_cli(capsys, "--input", str(path), "--surrogates", "0", "--qmax", "1")
        assert (code, err) == (0, "")
        assert json_lines(out)[0]["n"] == 7
        # error offsets still count the mark's three bytes
        path.write_bytes(b"\xef\xbb\xbf01\xff")
        code, _, err = run_cli(capsys, "--input", str(path), "--surrogates", "0", "--qmax", "1")
        assert code == 1
        assert json_lines(err)[0]["error"] == f"{path}: byte 0xff at offset 5 is not valid UTF-8"

    def test_loading_takes_a_few_bytes_per_character(self, tmp_path):
        # the file's bytes, one byte per byte to check, and the sequence's
        # one-byte symbols; no int64 or UTF-32 array of the text, and no
        # list of strings split from it.  Above A = 256 the two-byte symbols
        # are made once the file's bytes are freed.
        n = 10**6
        symbols = [str(s) for s in np.random.default_rng(3).integers(0, 4, n)]
        path = tmp_path / "symbols.txt"
        for sep, alphabet_size, bound in (("", 4, 8), (" ", 4, 6), ("", 300, 4)):
            path.write_text(sep.join(symbols) + "\n")
            tracemalloc.start()
            try:
                s = cli._load_symbol_file(str(path), alphabet_size)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(s) == n
            assert peak < bound * n, (sep, alphabet_size)

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_symbols_can_come_through_a_pipe(self):
        # a pipe cannot tell its position or size; the read must not need them
        code = "import sys\nfrom lzwmetrics.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        argv = ["--input", "/dev/stdin", "--surrogates", "0", "--qmax", "1"]
        proc = python_child(
            code, *argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        out, err = proc.communicate(b"\xef\xbb\xbf0110 100\n", timeout=60)
        assert (proc.returncode, err) == (0, b"")
        assert json.loads(out)["n"] == 7

    @pytest.mark.parametrize(
        "content, outcome",
        [
            (b"0120", "symbol 2 outside alphabet of size 2"),
            (b"01x0", "character 'x' is not a symbol digit"),
            (b"01-0", "character '-' is not a symbol digit"),
            (b"01\x000", "character '\\x00' is not a symbol digit"),
            (b"\xef\xbb\xbf0 1\n1", [0, 1, 1]),
            (b"\xef\xbb\xbf\xef\xbb\xbf01", "character '\\ufeff' is not a symbol digit"),
            (b"\xef\xbb\xbf01\xff", "byte 0xff at offset 5 is not valid UTF-8"),
            ("01\u06631".encode(), "character '\u0663' is not a symbol digit"),
            ("0\u00a01\u00a01".encode(), [0, 1, 1]),
            (b"0\x1c1\t\x1f0\x0b\x0c\r\n", [0, 1, 0]),
            (b"", "no symbols found"),
            (b" \t\x1c\r\n", "no symbols found"),
            (b"\xef\xbb\xbf", "no symbols found"),
        ],
        ids=["outside", "letter", "minus", "nul", "bom", "second-bom", "bom-then-bad-byte",
             "arabic-indic-three", "no-break-spaces", "ascii-separators", "empty",
             "whitespace-only", "bom-only"],
    )
    @pytest.mark.parametrize("tail", [b"", "\u00a0".encode()], ids=["as-is", "non-ascii-tail"])
    def test_ascii_bytes_and_text_read_alike(self, tmp_path, content, outcome, tail):
        # An ASCII file is read as bytes, any other as text; a trailing
        # no-break space, which str.split() drops, sends a file to the text
        # read, and both reads give the same symbols or the same message.
        path = tmp_path / "symbols.txt"
        path.write_bytes(content + tail)
        if isinstance(outcome, list):
            assert cli._load_symbol_file(str(path), 2).data.tolist() == outcome
        else:
            with pytest.raises(ValueError) as info:
                cli._load_symbol_file(str(path), 2)
            assert str(info.value) == f"{path}: {outcome}"

    def test_wider_alphabet(self, tmp_path, capsys):
        path = tmp_path / "quaternary.txt"
        path.write_text("0123012301230123")
        code, out, _ = run_cli(
            capsys,
            "--input", str(path), "--alphabet-size", "4",
            "--surrogates", "0", "--qmax", "2",
        )
        assert code == 0
        assert json_lines(out)[0]["alphabet_size"] == 4


class TestGeneratorInput:
    def test_bernoulli_demo(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "--generate", "bernoulli:p=0.5,n=100000",
            "--seed", "1", "--surrogates", "0", "--qmax", "2",
        )
        assert code == 0
        (report,) = json_lines(out)
        assert abs(report["h0"] - 1.0) < 0.001
        assert report["source"] == "bernoulli:p=0.5,n=100000"

    def test_periodic_and_constant(self, capsys):
        code, out, _ = run_cli(
            capsys, "--generate", "periodic:pattern=01,n=2000", "--surrogates", "0"
        )
        assert code == 0
        assert json_lines(out)[0]["h0"] == 1.0
        code, out, _ = run_cli(
            capsys, "--generate", "constant:symbol=0,n=2000", "--surrogates", "0"
        )
        assert code == 0
        (report,) = json_lines(out)
        assert report["h0"] == 0.0
        assert report["rho1_analytic"] is None
        assert "h0 degenerate" in report["warnings"]

    @pytest.mark.parametrize("symbol", ["0", "1", "2", "9"])
    def test_constant_is_a_one_symbol_period(self, capsys, symbol):
        argv = ["--qmax", "3", "--surrogates", "2", "--seed", "3"]
        reports = []
        for spec in (f"constant:symbol={symbol},n=3000", f"periodic:pattern={symbol},n=3000"):
            code, out, err = run_cli(capsys, "--generate", spec, *argv)
            assert (code, err) == (0, "")
            (report,) = json_lines(out)
            assert report.pop("source") == spec
            reports.append(report)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("symbol", [2**32, 2**62, 2**63 - 1])
    def test_symbols_past_32_bits(self, capsys, symbol):
        spec = f"constant:symbol={symbol},n=100"
        code, out, err = run_cli(capsys, "--generate", spec, "--surrogates", "0")
        assert (code, err) == (0, "")
        assert json_lines(out)[0]["alphabet_size"] == symbol + 1

    def test_markov_shorthand(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "--generate", "markov:eps=0.1,n=100000",
            "--seed", "2", "--surrogates", "0", "--qmax", "1",
        )
        assert code == 0
        (report,) = json_lines(out)
        assert 0.4 < report["hq"][0] < 0.55

    def test_markov_file(self, tmp_path, capsys):
        table = tmp_path / "chain.csv"
        table.write_text("0.9,0.1\n0.2,0.8\n")
        code, out, _ = run_cli(
            capsys,
            "--generate", f"markov-file:{table},n=50000",
            "--surrogates", "0", "--qmax", "1",
        )
        assert code == 0
        # stationary law is (2/3, 1/3); the ones fraction tracks it
        report = json_lines(out)[0]
        assert report["n"] == 50000

    def test_markov_file_with_byte_order_mark(self, tmp_path, capsys):
        table = tmp_path / "chain.csv"
        table.write_bytes(b"\xef\xbb\xbf0.9,0.1\n0.2,0.8\n")
        code, out, _ = run_cli(
            capsys, "--generate", f"markov-file:{table},n=100", "--surrogates", "0", "--qmax", "1"
        )
        assert code == 0
        assert json_lines(out)[0]["n"] == 100

    def test_small_flip_probability_runs(self, capsys):
        code, out, err = run_cli(
            capsys, "--generate", "markov:eps=0.00001,n=1000", "--surrogates", "0"
        )
        assert (code, err) == (0, "")
        assert json_lines(out)[0]["n"] == 1000

    @pytest.mark.parametrize("output_format", ["json", "csv"])
    @pytest.mark.parametrize("kind", ["markov", "markov-file"])
    def test_chain_without_a_unique_law_is_config_error(
        self, tmp_path, capsys, kind, output_format
    ):
        table = tmp_path / "two-classes.csv"
        table.write_text("1,0,0\n0,0.5,0.5\n0,0.5,0.5\n")
        spec = "markov:eps=0,n=100" if kind == "markov" else f"markov-file:{table},n=100"
        code, out, err = run_cli(capsys, "--generate", spec, "--output-format", output_format)
        assert (code, out) == (2, "")
        # one configuration error line, no unit failure record
        assert err.startswith("error:") and err.count("\n") == 1
        assert "not unique" in err

    def test_table_with_nan_is_config_error(self, tmp_path, capsys):
        table = tmp_path / "nan.csv"
        table.write_text("nan,1\n0.5,0.5\n")
        code, out, err = run_cli(capsys, "--generate", f"markov-file:{table},n=100")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "transition rows must each sum to 1" in err

    def test_chain_that_does_not_settle_is_config_error(self, tmp_path, capsys, monkeypatch):
        # The law is solved when the spec is built, before any input is read,
        # so a chain that runs into the step cap fails the configuration.
        from lzwmetrics import generators

        monkeypatch.setattr(generators, "_POWER_MAX_ITERS", 10**3)
        table = tmp_path / "slow.csv"
        table.write_text("0.99999,0.00001\n0.00002,0.99998\n")
        code, out, err = run_cli(capsys, "--generate", f"markov-file:{table},n=100")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "did not converge" in err

    @pytest.mark.parametrize(
        "spec, key",
        [
            ("markov:eps=0.1,n=2000,n=1000,eps=0.3", "n"),
            ("bernoulli:p=0.5, n=10,p =0.4", "p"),
            ("markov-file:{table},n=10,n=20", "n"),
            ("constant:symbol=0,n=10,symbol=0", "symbol"),
        ],
        ids=["markov", "bernoulli", "markov-file", "constant"],
    )
    def test_repeated_generator_parameter_is_config_error(self, tmp_path, capsys, spec, key):
        table = tmp_path / "chain.csv"
        table.write_text("0.9,0.1\n0.2,0.8\n")
        spec = spec.format(table=table)
        code, out, err = run_cli(capsys, "--generate", spec)
        assert (code, out) == (2, "")
        assert err == f"error: repeated generator parameter {key!r} in {spec!r}\n"

    @pytest.mark.parametrize("spec", ["noise", "noise:x=1", "noise:n=5"])
    def test_unknown_kind_is_named_before_its_parameters(self, capsys, spec):
        assert run_cli(capsys, "--generate", spec) == (
            2, "", "error: unknown generator kind 'noise'\n"
        )

    def test_markov_file_path_may_hold_commas(self, tmp_path, capsys):
        rows = "0.5,0.3,0.2\n0.1,0.8,0.1\n0.3,0.3,0.4\n"
        (tmp_path / "plain.csv").write_text(rows)
        (tmp_path / "d,x").mkdir()
        (tmp_path / "d,x" / "a,b.csv").write_text(rows)
        reports = []
        for path in (tmp_path / "plain.csv", tmp_path / "d,x" / "a,b.csv"):
            spec = f"markov-file:{path},n=50"
            code, out, err = run_cli(capsys, "--generate", spec, "--surrogates", "2", "--qmax", "2")
            assert (code, err) == (0, "")
            (report,) = json_lines(out)
            assert report.pop("source") == spec
            reports.append(report)
        assert reports[0] == reports[1]
        spec = f"markov-file:{path},n=5,n=6"
        assert run_cli(capsys, "--generate", spec) == (
            2, "", f"error: repeated generator parameter 'n' in {spec!r}\n"
        )

    def test_bad_generator_spec_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "--generate", "bernoulli:p=0.5")
        assert code == 2
        assert "missing parameter" in err
        code, _, _ = run_cli(capsys, "--generate", "noise:n=10")
        assert code == 2
        code, _, _ = run_cli(capsys, "--generate", "bernoulli:p=2.0,n=10")
        assert code == 2


class TestCsvInput:
    def make_csv(self, path, values, header=None, column_count=1, column=0):
        lines = []
        if header:
            lines.append(",".join(header))
        for v in values:
            row = ["0"] * column_count
            row[column] = repr(float(v))
            lines.append(",".join(row))
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "values",
        [[1e308, 1.5e308, 1.2e308, 1.7e308], [-1.5e308, 1e308, -1.2e308, 1.7e308]],
        ids=["same-sign", "mixed-signs"],
    )
    def test_median_of_huge_samples(self, tmp_path, capsys, values):
        path = tmp_path / "huge.csv"
        self.make_csv(path, values)
        argv = ["--format", "csv", "--surrogates", "0", "--qmax", "1"]
        code, out, err = run_cli(capsys, "--input", str(path), *argv)
        assert (code, err) == (0, "")
        # 0,1,0,1: two distinct bigrams, so c = 3 phrases (0, 1, 01)
        assert json_lines(out)[0]["c"] == 3

    def test_median_binarization_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "signal.csv"
        self.make_csv(path, [1.0, 2.0, 3.0, 4.0], header=["amplitude"])
        code, out, _ = run_cli(
            capsys,
            "--input", str(path), "--format", "csv", "--column", "amplitude",
            "--surrogates", "0", "--qmax", "1",
        )
        assert code == 0
        report = json_lines(out)[0]
        # digitized to 0,0,1,1 which parses into four single-symbol phrases
        assert report["n"] == 4
        assert report["c"] == 4

    @pytest.mark.parametrize("window", [None, "2"])
    @pytest.mark.parametrize("output_format", ["json", "csv"])
    def test_median_is_two_quantiles(
        self, tmp_path, capsys, monkeypatch, output_format, window
    ):
        # the overflow, tie and adjacent-float samples of the digitizer tests
        a = np.nextafter(1.0, 2)
        samples = [
            [1e308, 1.5e308, 1.2e308, 1.7e308],
            [-1e308, -1.5e308, -1.2e308, -1.7e308],
            [1.7e308, -1.7e308],
            [-1e308, 1.5e308, -1.2e308, 1.7e308, 0.0],
            [7.0, 7.0, 7.0, 7.0],
            [a, np.nextafter(a, 2)],
        ]
        for i, values in enumerate(samples):
            self.make_csv(tmp_path / f"{i}.csv", values)
        argv = [
            "--input", str(tmp_path), "--format", "csv", "--qmax", "2",
            "--surrogates", "2", "--output-format", output_format,
            *(["--window", window] if window else []),
        ]
        levels = []
        # the digitizer is looked up on the cli module, where tracing wraps it
        real = cli.digitize_quantiles
        monkeypatch.setattr(
            cli, "digitize_quantiles", lambda series, k: levels.append(k) or real(series, k)
        )
        code, out, err = run_cli(capsys, *argv, "--digitizer", "median")
        assert code == 0 and out
        assert set(levels) == {2}
        assert run_cli(capsys, *argv, "--digitizer", "quantiles:2") == (code, out, err)

    def test_column_by_index_without_header(self, tmp_path, capsys):
        path = tmp_path / "two_columns.csv"
        rows = ["1.0,9.0", "2.0,8.0", "3.0,7.0", "4.0,6.0"]
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            capsys,
            "--input", str(path), "--format", "csv", "--column", "1",
            "--surrogates", "0", "--qmax", "1",
        )
        assert code == 0
        assert json_lines(out)[0]["n"] == 4

    def test_quantile_digitizer(self, tmp_path, capsys):
        path = tmp_path / "signal.csv"
        self.make_csv(path, list(range(40)))
        code, out, _ = run_cli(
            capsys,
            "--input", str(path), "--format", "csv", "--digitizer", "quantiles:4",
            "--surrogates", "0", "--qmax", "1",
        )
        assert code == 0
        report = json_lines(out)[0]
        assert report["alphabet_size"] == 4
        assert abs(report["h0"] - 2.0) < 1e-6

    def test_loading_keeps_one_float_per_row(self, tmp_path):
        # the np.loadtxt array becomes the series: no second float64 copy
        rows = 200_000
        path = tmp_path / "rows.csv"
        values = np.random.default_rng(4).standard_normal(rows)
        path.write_text("t,value\n" + "".join(f"{i},{v:.6f}\n" for i, v in enumerate(values)))
        tracemalloc.start()
        try:
            series = cli._load_csv_series(str(path), "value")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(series) == rows
        assert peak < 1.25 * 8 * rows

    def test_nan_sample_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "holes.csv"
        path.write_text("1.0\nnan\n3.0\n4.0\n")
        code, out, err = run_cli(capsys, "--input", str(path), "--format", "csv")
        assert code == 1
        assert out == ""
        assert "NaN" in json_lines(err)[0]["error"]

    @pytest.mark.parametrize("quote", ["", '"'], ids=["vectorized", "row-loop"])
    def test_nan_sample_cites_the_file_line(self, tmp_path, quote):
        path = tmp_path / "holes.csv"
        path.write_text(f"value\n1.0\n\n{quote}nan{quote}\n3.0\n")
        message = f"{path}: NaN sample 'nan' at line 4"
        for load in (cli._load_csv_series, cli._read_csv_rows):
            with pytest.raises(ValueError) as info:
                load(str(path), None)
            assert str(info.value) == message

    def test_error_cites_the_file_line(self, tmp_path, capsys):
        path = tmp_path / "gaps.csv"
        path.write_text("value\n1.0\n\n2.0\n\n\nbad\n3.0\n")
        code, out, err = run_cli(capsys, "--input", str(path), "--format", "csv")
        assert code == 1
        assert out == ""
        assert json_lines(err)[0]["error"] == f"{path}: cannot parse sample 'bad' at line 7"

    def test_directory_with_one_corrupt_file(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rng = np.random.default_rng(51)
        for name in ("a.csv", "b.csv", "c.csv"):
            self.make_csv(corpus / name, rng.normal(size=64))
        (corpus / "broken.csv").write_text("1.0\nnot-a-number\n2.0\n")
        code, out, err = run_cli(
            capsys,
            "--input", str(corpus), "--format", "csv",
            "--surrogates", "0", "--qmax", "2",
        )
        assert code == 1
        reports = json_lines(out)
        assert len(reports) == 3
        errors = json_lines(err)
        assert len(errors) == 1
        assert errors[0]["source"].endswith("broken.csv")

    def test_oversized_field_fails_alone(self, tmp_path, capsys):
        # csv.reader raises csv.Error, not ValueError, past its field size limit
        cases = [
            ("value\n1.0\n" + "9" * 200_000 + "\n2.0\n", []),
            # in a column that is not read: np.loadtxt alone would accept it
            ("t,value\n0,1.0\n" + "9" * 200_000 + ",2.0\n2,3.0\n", ["--column", "value"]),
        ]
        for i, (text, column) in enumerate(cases):
            corpus = tmp_path / f"corpus{i}"
            corpus.mkdir()
            (corpus / "a.csv").write_text(text)
            values = np.random.default_rng(53).normal(size=64)
            self.make_csv(corpus / "b.csv", values, header=["value"])
            code, out, err = run_cli(
                capsys,
                "--input", str(corpus), "--format", "csv", *column,
                "--surrogates", "0", "--qmax", "2",
            )
            assert code == 1
            (report,) = json_lines(out)
            assert report["source"].endswith("b.csv")
            (record,) = json_lines(err)
            assert record["source"] == str(corpus / "a.csv")
            error = record["error"]
            assert error.startswith(f"{corpus / 'a.csv'}: field larger than field limit")
            assert error.endswith(" at line 3")

    @pytest.mark.parametrize(
        "text, samples",
        [
            ('value\n1.0\n"2.5"\n3.0\n', [1.0, 2.5, 3.0]),
            # a quoted field spanning lines is one row, not two
            ('value,note\n1.0,"a\n2.0,b"\n3.0,c\n', [1.0, 3.0]),
        ],
    )
    def test_quoted_fields(self, tmp_path, text, samples):
        path = tmp_path / "quoted.csv"
        path.write_text(text)
        assert cli._load_csv_series(str(path), "value").samples.tolist() == samples

    @pytest.mark.parametrize("quote", ["", '"'], ids=["vectorized", "row-loop"])
    def test_leading_byte_order_mark_is_dropped(self, tmp_path, capsys, quote):
        headerless = tmp_path / "headerless.csv"
        headerless.write_bytes(f"\ufeff{quote}1.0{quote}\n2.0\n3.0\n4.0\n".encode())
        named = tmp_path / "named.csv"
        named.write_bytes(f"\ufeff{quote}t{quote},value\n0,1.5\n1,2.5\n2,3.5\n".encode())
        for path, column, samples in [
            (headerless, None, [1.0, 2.0, 3.0, 4.0]),
            (named, "t", [0.0, 1.0, 2.0]),
        ]:
            assert cli._load_csv_series(str(path), column).samples.tolist() == samples
            assert cli._read_csv_rows(str(path), column).samples.tolist() == samples
        code, out, err = run_cli(
            capsys, "--input", str(named), "--format", "csv", "--column", "t", "--qmax", "1"
        )
        assert (code, err) == (0, "")
        assert json_lines(out)[0]["n"] == 3

    def test_undecodable_byte_fails_with_its_offset(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        # a leading byte-order mark is dropped, but its bytes still count
        for bom, offset in [(b"", 11), (b"\xef\xbb\xbf", 14)]:
            path.write_bytes(bom + b"value\n1.0\n2\xff.0\n3.0\n")
            code, out, err = run_cli(capsys, "--input", str(path), "--format", "csv")
            assert code == 1
            assert out == ""
            (record,) = json_lines(err)
            assert record["error"] == f"{path}: byte 0xff at offset {offset} is not valid UTF-8"

    @pytest.mark.parametrize("chunk", [1, 2, 3, 1 << 20])
    def test_utf8_check_spans_scan_chunks(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(cli, "_SCAN_BYTES", chunk)
        good = tmp_path / "good.csv"
        good.write_bytes("m\u00e9tre\n1.0\n2.0\n".encode())
        assert cli._load_csv_series(str(good), "m\u00e9tre").samples.tolist() == [1.0, 2.0]
        # a bad continuation byte, and a sequence cut off by the end of file
        for raw, byte in [(b"x\n1.0\n\xc3(\n", "c3"), (b"x\n1.0\n\xe2\x82", "e2")]:
            bad = tmp_path / "bad.csv"
            bad.write_bytes(raw)
            with pytest.raises(ValueError) as info:
                cli._load_csv_series(str(bad), None)
            assert str(info.value) == f"{bad}: byte 0x{byte} at offset 6 is not valid UTF-8"

    def test_plain_numeric_file_skips_the_row_loop(self, tmp_path, monkeypatch):
        path = tmp_path / "plain.csv"
        # several scan chunks long, so lines cross chunk boundaries
        rows = "".join(f"{i},{i / 7:.6f}\n" for i in range(3, 30_000))
        path.write_text("t,value\n\n0,1.5\r\n1, -2e3 \n2,inf\n\n" + rows)
        reference = cli._read_csv_rows(str(path), "value").samples
        monkeypatch.setattr(cli, "_read_csv_rows", None)
        with warnings.catch_warnings():
            # blank lines draw no warning from the vectorized read, which
            # would otherwise fall back to the (removed) row loop
            warnings.simplefilter("error")
            series = cli._load_csv_series(str(path), "value")
        assert series.samples.tolist() == reference.tolist()

    @pytest.mark.parametrize("end", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_every_line_end_counts_toward_the_rows(self, tmp_path, monkeypatch, end):
        # the vectorized read takes no more rows than the scan counted lines
        values = [float(f"{i / 3:.6f}") for i in range(500)]
        path = tmp_path / "ends.csv"
        path.write_text(end.join(map(repr, values)) + end, newline="")
        monkeypatch.setattr(cli, "_read_csv_rows", None)
        assert cli._load_csv_series(str(path), None).samples.tolist() == values


class TestWindowing:
    def test_constant_length_reports_and_per_window_seeds(self, tmp_path, capsys):
        path = tmp_path / "long.txt"
        rng = np.random.default_rng(52)
        path.write_text("".join(str(b) for b in rng.integers(0, 2, 1050)))
        code, out, err = run_cli(
            capsys,
            "--input", str(path), "--window", "100",
            "--surrogates", "2", "--qmax", "2", "--seed", "7",
        )
        assert code == 0
        reports = json_lines(out)
        assert len(reports) == 10
        assert all(r["n"] == 100 for r in reports)
        assert [r["seed"] for r in reports] == [7 + i for i in range(10)]
        assert [r["source"] for r in reports] == [f"{path}@{i}" for i in range(10)]
        assert "dropped 1 trailing partial window" in err

    def test_units_of_a_directory_run_get_consecutive_seeds(self, tmp_path, capsys):
        # identical files must not share surrogate permutations
        text = "0110100110010110" * 8
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("a.txt", "b.txt"):
            (corpus / name).write_text(text)
        code, out, _ = run_cli(
            capsys, "--input", str(corpus), "--surrogates", "2", "--seed", "4"
        )
        assert code == 0
        reports = json_lines(out)
        assert [r["seed"] for r in reports] == [4, 5]
        s = SymbolSequence(Alphabet(2), np.array([int(ch) for ch in text]))
        for r in reports:
            expected = json.loads(emit_report(analyze(s, q_max=4, surrogates=2, seed=r["seed"])))
            assert r["rho1_surrogate"] == expected["rho1_surrogate"]

    def test_exact_multiple_drops_nothing(self, tmp_path, capsys):
        path = tmp_path / "exact.txt"
        path.write_text("01" * 200)
        code, out, err = run_cli(
            capsys, "--input", str(path), "--window", "100", "--surrogates", "0"
        )
        assert code == 0
        assert len(json_lines(out)) == 4
        assert "dropped 0" in err

    def test_numeric_windows_are_views_and_symbol_windows_copies(self):
        symbols = SymbolSequence(Alphabet(300), np.arange(10) * 29)
        series = NumericSeries(np.arange(10.0))
        for data, values, stored, shared in (
            (symbols, symbols.data, lambda w: w.data, False),
            (series, series.samples, lambda w: w.samples, True),
        ):
            *windows, rest = cli._windows(data, 4)
            assert rest is None and len(windows) == 2
            for i, window in enumerate(map(stored, windows)):
                assert np.array_equal(window, values[4 * i : 4 * i + 4])
                assert np.shares_memory(window, values) == shared
                assert not window.flags.writeable

    def test_numeric_windows_digitize_independently(self, tmp_path, capsys):
        path = tmp_path / "ramp.csv"
        path.write_text("\n".join(repr(float(v)) for v in range(20)) + "\n")
        code, out, _ = run_cli(
            capsys,
            "--input", str(path), "--format", "csv", "--window", "10",
            "--surrogates", "0", "--qmax", "1",
        )
        assert code == 0
        reports = json_lines(out)
        # each window is thresholded at its own median, so both halves of
        # the ramp binarize to 0000011111 and score h0 = 1
        assert all(r["h0"] == 1.0 for r in reports)


class TestStreaming:
    def test_finished_reports_survive_a_later_crash(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "bits.txt"
        path.write_text("0110" * 75)
        real_analyze = cli.analyze
        calls = []

        def crash_on_second_unit(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("crash in the second unit")
            return real_analyze(*args, **kwargs)

        monkeypatch.setattr(cli, "analyze", crash_on_second_unit)
        argv = ["--input", str(path), "--window", "100", "--surrogates", "0", "--qmax", "2"]
        with pytest.raises(RuntimeError):
            main(argv)
        (first,) = json_lines(capsys.readouterr().out)
        assert first["source"] == f"{path}@0"

        calls.clear()
        out_file = tmp_path / "reports.jsonl"
        with pytest.raises(RuntimeError):
            main([*argv, "--output", str(out_file)])
        assert json_lines(out_file.read_text()) == [first]

    def test_pool_workers_are_reaped_after_a_run_and_after_a_crash(
        self, tmp_path, capsys, monkeypatch
    ):
        path = tmp_path / "bits.txt"
        path.write_text("0110" * 75)
        started = forced_pool(monkeypatch, 2)
        argv = ["--input", str(path), "--window", "100", "--surrogates", "2", "--qmax", "2"]
        assert main(argv) == 0
        assert started == [2]
        assert_no_child_left()
        reports = json_lines(capsys.readouterr().out)
        assert len(reports) == 3

        real_analyze = cli.analyze

        def crash_in_second_unit(*args, **kwargs):
            if kwargs["seed"] == 1:
                raise RuntimeError("crash in the second unit")
            return real_analyze(*args, **kwargs)

        # the workers fork from this process, so they see the patch
        monkeypatch.setattr(cli, "analyze", crash_in_second_unit)
        with pytest.raises(RuntimeError, match="crash in the second unit"):
            main(argv)
        assert started == [2, 2]
        assert_no_child_left()
        assert json_lines(capsys.readouterr().out) == reports[:1]

    @pytest.mark.parametrize("death", ["exit", "kill", "task write"])
    def test_a_unit_that_ends_its_worker_fails_alone(self, tmp_path, capsys, monkeypatch, death):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rng = np.random.default_rng(24)
        for name, n in (("a.txt", 300), ("b.txt", 301), ("c.txt", 300), ("d.txt", 300)):
            (corpus / name).write_text("".join(str(b) for b in rng.integers(0, 2, n)))
        argv = ["--input", str(corpus), "--surrogates", "3", "--qmax", "2", "--seed", "40"]
        code, clean, _ = run_cli(capsys, *argv)
        assert code == 0
        started = forced_pool(monkeypatch, 2)
        if death == "task write":
            # b.txt's unit, seeded 41, pickles with 4 MiB of out-of-band
            # padding, and each worker that takes one of its tasks exits
            # once it has read the task's sizes and stream, before it reads
            # the padding: the parent is then still writing the padding, and
            # its write fails with EPIPE.  Workers are forked, so they see
            # the patched _serve.
            real_reduce, real_serve = SymbolSequence.__reduce__, _pool._serve

            def reduce_padded(unit):
                if len(unit) != 301:
                    return real_reduce(unit)
                padding = pickle.PickleBuffer(bytes(ExitBeforeReading.size))
                return load_after, (padding, real_reduce(unit))

            def serve_ending_before_padding(tasks, results):
                real_serve(ExitBeforeReading(tasks.detach()), results)

            monkeypatch.setattr(SymbolSequence, "__reduce__", reduce_padded)
            monkeypatch.setattr(_pool, "_serve", serve_ending_before_padding)
            error = "exit code 3"
        else:
            # the workers get the patched function by pickle, hence a partial
            # of a module-level function
            ending = 3 if death == "exit" else signal.SIGKILL
            error = "exit code 3" if death == "exit" else "killed by signal 9"
            bits = partial(surrogate_bits_ending_worker, ending, 41, 2)
            monkeypatch.setattr(cli, "_surrogate_bits", bits)
        # the exception each lost worker's task was lost to: BrokenPipeError
        # from _send, or EOFError from the result pipe
        lost, real_lose = [], _pool.ForkPool._lose

        def lose(pool, worker):
            lost.append(sys.exc_info()[0])
            real_lose(pool, worker)

        monkeypatch.setattr(_pool.ForkPool, "_lose", lose)
        code, out, err = run_cli(capsys, *argv)
        assert started == [2]
        # the unit's base task and its 3 surrogate tasks, for a task write
        assert lost == ([BrokenPipeError] * 4 if death == "task write" else [EOFError])
        assert code == 1
        a, _, c, d = clean.splitlines(keepends=True)
        assert out == a + c + d
        assert json_lines(err) == [
            {"source": str(corpus / "b.txt"), "error": f"analysis worker terminated ({error})"}
        ]
        assert_no_child_left()

    @pytest.mark.parametrize("cut", [None, "stream", "buffer"], ids=["whole", "stream", "buffer"])
    def test_a_worker_returns_quietly_from_a_task_cut_short(self, capfd, cut):
        unit = SymbolSequence(Alphabet(300), np.arange(1000) % 300)
        header, stream, buffer = _pool._frame((len, (unit,)))
        assert buffer.nbytes == unit.data.nbytes
        frame = b"".join([header, stream, buffer])
        # the whole task; or the sizes and half the stream; or the sizes,
        # the stream and half the buffer
        end = {
            None: len(frame),
            "stream": len(header) + len(stream) // 2,
            "buffer": len(frame) - buffer.nbytes // 2,
        }[cut]
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        os.write(task_w, frame[:end])  # less than a pipe holds
        os.close(task_w)
        with open(task_r, "rb") as tasks, open(result_w, "wb") as results:
            assert _pool._serve(tasks, results) is None
        with open(result_r, "rb") as results:
            replies = results.read()
        assert replies == (pickle.dumps((1000, None)) if cut is None else b"")
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_closed_stdout_ends_the_run_quietly(self, tmp_path, workers):
        path = tmp_path / "bits.txt"
        path.write_text("0110" * 50_000)  # 2,000 reports, more than a pipe buffers
        # After the run, neither pool module is imported and no worker is
        # left; either failure would print a traceback or change the status.
        code = (
            "import os, sys\n"
            "from lzwmetrics import cli\n"
            f"cli._workers = lambda: {workers}\n"
            "cli._POOL_MIN_SYMBOLS = 0\n"
            "status = cli.main(sys.argv[1:])\n"
            "assert not {'multiprocessing', 'concurrent.futures'} & set(sys.modules)\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    sys.exit(status)\n"
            "sys.exit(9)\n"
        )
        argv = ["--input", str(path), "--window", "100", "--surrogates", "1", "--qmax", "2"]
        proc = python_child(code, *argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert json.loads(proc.stdout.readline())["source"] == f"{path}@0"
            proc.stdout.close()
            # stderr reaches end of file only once the workers, which
            # inherit it, have exited too
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 1
        assert err == b""

    def test_serial_runs_import_no_pool(self):
        code = (
            "import sys\n"
            "from lzwmetrics import cli\n"
            "if sys.argv[1] != 'default':\n"
            "    cli._workers = lambda: 2\n"
            "    cli._POOL_MIN_SYMBOLS = 0\n"
            "if sys.argv[1] == 'crash':\n"
            "    cli.analyze = lambda *args, **kwargs: 1 / 0\n"
            "started, real_pool = [], cli._fork_pool\n"
            "cli._fork_pool = lambda n: started.append(n) or real_pool(n)\n"
            "try:\n"
            "    cli.main(sys.argv[2:])\n"
            "except ZeroDivisionError:\n"
            "    started.append('crashed')\n"
            "print(started, sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
        )
        small = ("--generate", "bernoulli:p=0.5,n=2000", "--surrogates", "10")
        runs = {
            # surrogates off, above the break-even work
            ("default", "--generate", "markov:eps=0.1,n=1000000", "--surrogates", "0"): "[] []",
            # surrogates on, below it
            ("default", *small): "[] []",
            # the controls: a pool started, and imported neither, in a clean
            # run and in one that a worker's exception ended
            ("forced", *small): "[2] []",
            ("crash", *small): "[2, 'crashed'] []",
        }
        for argv, expected in runs.items():
            proc = python_child(code, *argv, stdout=subprocess.PIPE, text=True)
            out, _ = proc.communicate(timeout=120)
            assert out.splitlines()[-1] == expected, argv

    def test_pool_workers_start_with_numpy_random_imported(self):
        # numpy 2 imports numpy.random on first use; the pool imports it
        # before it forks, so no worker pays for its own import at its first
        # shuffle.  numpy 1.x imports it with numpy, so there only the
        # workers' side can be checked.
        code = (
            "import sys\n"
            "import numpy\n"
            "def imported():\n"
            "    return 'numpy.random' in sys.modules\n"
            "eager = imported()\n"
            "from lzwmetrics import cli\n"
            "before = imported()\n"
            "with cli._fork_pool(2) as submit:\n"
            "    print(eager, before, submit(imported)())\n"
        )
        proc = python_child(code, stdout=subprocess.PIPE, text=True)
        out, _ = proc.communicate(timeout=60)
        eager, before, in_worker = out.split()
        assert in_worker == "True"
        if eager == "False":
            assert before == "False"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_unit_out_of_memory_fails_alone(self, tmp_path, capsys, monkeypatch, workers):
        path = tmp_path / "bits.txt"
        path.write_text("0110" * 75)
        argv = ["--input", str(path), "--window", "100", "--surrogates", "1", "--qmax", "2"]
        clean = json_lines(run_cli(capsys, *argv)[1])
        if workers > 1:
            forced_pool(monkeypatch, workers)
        real_analyze = cli.analyze

        def out_of_memory_in_window_two(*args, **kwargs):
            if kwargs["seed"] == 1:
                raise MemoryError
            return real_analyze(*args, **kwargs)

        # with a pool, the workers fork from this process and see the patch
        monkeypatch.setattr(cli, "analyze", out_of_memory_in_window_two)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert json_lines(out) == [clean[0], clean[2]]
        record, dropped = err.splitlines()
        assert json.loads(record) == {"source": f"{path}@1", "error": "out of memory"}
        assert dropped == "windowing: dropped 0 trailing partial window(s)"

    def test_an_input_out_of_memory_fails_alone(self, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("a.txt", "b.txt", "c.txt"):
            (corpus / name).write_text("0110" * 25)
        real_load = cli._load_symbol_file

        def out_of_memory_on_b(path, alphabet_size):
            if path.endswith("b.txt"):
                raise MemoryError("Unable to allocate 8.00 GiB")
            return real_load(path, alphabet_size)

        monkeypatch.setattr(cli, "_load_symbol_file", out_of_memory_on_b)
        code, out, err = run_cli(capsys, "--input", str(corpus), "--surrogates", "0", "--qmax", "1")
        assert code == 1
        assert [r["source"] for r in json_lines(out)] == [
            str(corpus / "a.txt"),
            str(corpus / "c.txt"),
        ]
        assert json_lines(err) == [
            {"source": str(corpus / "b.txt"), "error": "Unable to allocate 8.00 GiB"}
        ]

    @pytest.mark.parametrize("window", [None, "400"])
    def test_a_unit_out_of_memory_while_digitizing_fails_alone(
        self, tmp_path, capsys, monkeypatch, window
    ):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rng = np.random.default_rng(12)
        for name in ("a.csv", "b.csv", "c.csv"):
            (corpus / name).write_text("".join(f"{v:.6f}\n" for v in rng.normal(size=1000)))
        argv = ["--input", str(corpus), "--format", "csv", "--surrogates", "1", "--qmax", "2"]
        argv += ["--window", window] if window else []
        clean = run_cli(capsys, *argv)[1].splitlines()
        assert len(clean) == (3 if window is None else 6)
        real = cli.digitize_quantiles
        calls = []

        def out_of_memory_on_the_second_unit(series, levels):
            calls.append(levels)
            if len(calls) == 2:
                raise MemoryError()
            return real(series, levels)

        monkeypatch.setattr(cli, "digitize_quantiles", out_of_memory_on_the_second_unit)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out.splitlines() == clean[:1] + clean[2:]
        label = str(corpus / "b.csv") if window is None else f"{corpus / 'a.csv'}@1"
        record = json.dumps({"source": label, "error": "out of memory"})
        dropped = "windowing: dropped 3 trailing partial window(s)\n" if window else ""
        assert err == record + "\n" + dropped

    def test_failure_records_come_in_unit_order(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.txt").write_text("0")  # loads, too short to analyze
        (corpus / "b.txt").write_text("0120")  # fails to load
        (corpus / "c.txt").write_text("0110")
        code, out, err = run_cli(capsys, "--input", str(corpus), "--surrogates", "0", "--qmax", "1")
        assert code == 1
        assert [r["source"] for r in json_lines(out)] == [str(corpus / "c.txt")]
        assert [r["source"] for r in json_lines(err)] == [
            str(corpus / "a.txt"),
            str(corpus / "b.txt"),
        ]


class TestSerialization:
    def test_constant_input_reports_h0_as_positive_zero(self, capsys):
        argv = ["--generate", "constant:symbol=0,n=3000", "--qmax", "2", "--surrogates", "0"]
        _, out, _ = run_cli(capsys, *argv)
        assert '"rho2": -0.161245, "h0": 0.0, "hq": [0.0, 0.0],' in out
        _, out, _ = run_cli(capsys, *argv, "--output-format", "csv")
        assert ",-0.161245,0,0,0,0,0," in out

    def test_json_round_trip_at_six_significant_digits(self):
        s = generate(symmetric_binary_markov(0.2), 5000, 3)
        report = analyze(s, q_max=3, surrogates=4, seed=3)
        parsed = json.loads(emit_report(report))
        def sig6(x):
            return float(f"{x:.6g}")
        assert parsed["n"] == report.n
        assert parsed["c"] == report.c
        assert parsed["dict_size"] == report.dict_size
        assert parsed["l_lzw_bits"] == sig6(report.l_lzw_bits)
        assert parsed["bound_bits"] == sig6(report.bound_bits)
        assert parsed["rho0"] == sig6(report.rho0)
        assert parsed["rho1_analytic"] == sig6(report.rho1_analytic)
        assert parsed["rho1_surrogate"] == sig6(report.rho1_surrogate)
        assert parsed["rho2"] == sig6(report.rho2)
        assert parsed["h0"] == sig6(report.entropy.h0)
        assert parsed["hq"] == [sig6(v) for v in report.entropy.hq]
        assert parsed["surrogate_count"] == report.surrogate_count
        assert parsed["seed"] == report.seed
        assert parsed["warnings"] == list(report.warnings)

    def test_json_key_schema(self):
        s = SymbolSequence(Alphabet(2), np.array([0, 1] * 500))
        parsed = json.loads(emit_report(analyze(s, 2, 0, 0)))
        assert list(parsed.keys()) == [
            "n", "alphabet_size", "c", "dict_size", "l_lzw_bits", "bound_bits",
            "rho0", "rho1_analytic", "rho1_surrogate", "rho2", "h0", "hq",
            "surrogate_count", "seed", "source", "warnings", "note",
        ]

    def test_csv_header_and_row_stay_aligned(self, tmp_path, capsys):
        path = tmp_path / "bits.txt"
        path.write_text("0110100101101001")
        code, out, _ = run_cli(
            capsys,
            "--input", str(path), "--output-format", "csv",
            "--surrogates", "1", "--qmax", "4",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == csv_header(4)
        header_fields = lines[0].split(",")
        assert header_fields[11:15] == ["hq_1", "hq_2", "hq_3", "hq_4"]
        assert len(lines) == 2
        assert len(lines[1].split(",")) == len(header_fields)

    def test_csv_pads_short_windows(self, tmp_path, capsys):
        path = tmp_path / "bits.txt"
        path.write_text("011010010110")
        code, out, _ = run_cli(
            capsys,
            "--input", str(path), "--output-format", "csv",
            "--window", "3", "--surrogates", "0", "--qmax", "4",
        )
        assert code == 0
        lines = out.splitlines()
        # window length 3 caps the entropy order at 2; hq_3 and hq_4 are empty
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            assert row[13] == "" and row[14] == ""


class TestConfigErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--input", "x", "--format", "csv", "--digitizer", "none"),
            ("--input", "x", "--digitizer", "median"),
            ("--input", "x", "--window", "1"),
            ("--input", "x", "--qmax", "0"),
            ("--input", "x", "--qmax", "17"),
            ("--input", "x", "--surrogates", "-1"),
            ("--input", "x", "--alphabet-size", "1"),
            ("--input", "x", "--column", "0"),
            ("--generate", "bernoulli:p=0.5,n=10", "--digitizer", "median"),
            ("--input", "x", "--format", "csv", "--digitizer", "quantiles:1"),
            ("--input", "x", "--seed", "-1"),
            ("--input", "x", "--output", "x"),
            ("--generate", "bernoulli:p=0.5,n=2000", "--alphabet-size", "7"),
            ("--generate", "bernoulli:p=0.5,n=100", "--format", "csv"),
            ("--generate", "bernoulli:p=0.5,n=100", "--format", "symbols"),
            ("--input", "x", "--format", "csv", "--alphabet-size", "9"),
            ("--input", "x", "--format", "csv", "--digitizer", "quantiles:x"),
            ("--input", "x", "--digitizer", "foo"),
            ("--generate", "markov"),
            ("--generate", "markov:eps"),
            ("--generate", "markov-file:/no/such.csv,n=5"),
            ("--generate", "bernoulli:p=0.5,n=5,x=1"),
            ("--generate", "bernoulli:p=0.5,n=0"),
        ],
    )
    def test_contradictions_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("target", ["no/such/dir/out.json", "."])
    def test_unopenable_output_exits_2(self, capsys, tmp_path, target):
        path = tmp_path / "bits.txt"
        path.write_text("0110")
        output = str(tmp_path / target)
        code, out, err = run_cli(capsys, "--input", str(path), "--output", output)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot open --output {output}:")
        assert err.count("\n") == 1

    def test_missing_input_file_is_unit_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "--input", str(tmp_path / "nope.txt"))
        assert code == 1
        assert json_lines(err)[0]["source"].endswith("nope.txt")


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rng = np.random.default_rng(53)
        for i in range(4):
            (corpus / f"f{i}.csv").write_text(
                "\n".join(repr(float(v)) for v in rng.normal(size=300)) + "\n"
            )
        argv = (
            "--input", str(corpus), "--format", "csv", "--window", "64",
            "--surrogates", "3", "--seed", "5",
        )
        code_a, out_a, _ = run_cli(capsys, *argv)
        code_b, out_b, _ = run_cli(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_output_file_inside_input_directory_is_not_an_input(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "bits.txt").write_text("0110" * 100)
        out_file = corpus / "report.jsonl"
        argv = ["--input", str(corpus), "--output", str(out_file), "--surrogates", "2"]
        assert main(argv) == 0
        first = out_file.read_text()
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert out_file.read_text() == first

    def test_output_file_is_utf8_whatever_the_locale(self, tmp_path):
        # In the C locale, without UTF-8 mode, the non-ASCII file name comes
        # in as surrogate escapes; stdout writes its bytes back, and so must
        # the --output file.
        (tmp_path / "日本.txt").write_text("0110100110" * 5)
        code = "import sys\nfrom lzwmetrics.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        env = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        argv = ["--input", "日本.txt", "--output-format", "csv", "--surrogates", "0"]
        runs = []
        for extra in ([], ["--output", "out.csv"]):
            proc = python_child(
                code, *argv, *extra, env=env, cwd=tmp_path,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            runs.append(proc.communicate(timeout=60))
            assert proc.returncode == 0, runs[-1][1]
        (out, _), (file_out, file_err) = runs
        assert (file_out, file_err) == (b"", b"")
        assert "日本.txt".encode("utf-8") in out
        assert (tmp_path / "out.csv").read_bytes() == out

    @pytest.mark.parametrize("window", [[], ["--window", "60"]])
    @pytest.mark.parametrize("output_format", ["json", "csv"])
    def test_reports_are_identical_for_every_worker_count(
        self, tmp_path, capsys, monkeypatch, window, output_format
    ):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rng = np.random.default_rng(55)
        for name, n in (("a.txt", 250), ("c.txt", 130), ("d.txt", 200)):
            (corpus / name).write_text("".join(str(b) for b in rng.integers(0, 2, n)))
        (corpus / "b.txt").write_text("0120")  # fails to load
        (corpus / "e.txt").write_text("1")  # too short, or a dropped window
        argv = [
            "--input", str(corpus), *window, "--surrogates", "3", "--qmax", "3",
            "--seed", "9", "--output-format", output_format,
        ]
        runs = []
        for workers in (1, 2, 3):
            started = forced_pool(monkeypatch, workers)
            out_file = tmp_path / f"reports{workers}"
            to_stdout = run_cli(capsys, *argv)
            to_file = run_cli(capsys, *argv, "--output", str(out_file))
            assert started == ([] if workers == 1 else [workers, workers])
            runs.append((to_stdout, to_file, out_file.read_text()))
        assert runs[0] == runs[1] == runs[2]

        # Units pickled to the workers with their symbols out of band and
        # unpickled there: over A = 3 and 16, at lengths and windows off a
        # multiple of 2, 4 and 8; stored as uint16 (A = 300); and a wide
        # unit, whose 400 kB uint16 buffer crosses through many refills of
        # a 64 KiB pipe
        ternary = tmp_path / "ternary"
        ternary.mkdir()
        for name, n in (("a.txt", 251), ("b.txt", 130)):
            (ternary / name).write_text("".join(str(t) for t in rng.integers(0, 3, n)))
        recordings = {}
        for name, n in (("16", 303), ("300", 300), ("wide", 200_000)):
            recordings[name] = tmp_path / f"rec{name}.csv"
            recordings[name].write_text("".join(f"{v:.6f}\n" for v in rng.standard_normal(n)))
        odd_window = ["--window", "61"] if window else []
        csv_input = ["--format", "csv", "--digitizer"]
        cases = [
            (["--input", str(ternary), "--alphabet-size", "3", *odd_window], 3,
             6 if window else 2),
            (["--input", str(recordings["16"]), *csv_input, "quantiles:16", *odd_window], 3,
             4 if window else 1),
            (["--input", str(recordings["300"]), *csv_input, "quantiles:300", *window], 3,
             5 if window else 1),
            (["--input", str(recordings["wide"]), *csv_input, "quantiles:300"], 2, 1),
        ]
        for source, surrogates, reports in cases:
            case = [
                *source, "--surrogates", str(surrogates), "--qmax", "2",
                "--output-format", output_format,
            ]
            case_runs = []
            for workers in (1, 2, 3):
                started = forced_pool(monkeypatch, workers)
                case_runs.append(run_cli(capsys, *case))
                assert started == ([] if workers == 1 else [workers])
            assert case_runs[0] == case_runs[1] == case_runs[2], source
            code, out, _ = case_runs[0]
            assert code == 0
            assert len(out.splitlines()) == reports + (output_format == "csv")

        (code, out, err), (_, file_out, _), file_text = runs[0]
        assert code == 1
        assert file_out == "" and file_text == out
        records = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
        short = [] if window else [str(corpus / "e.txt")]
        assert [r["source"] for r in records] == [str(corpus / "b.txt"), *short]
        assert err.endswith("windowing: dropped 4 trailing partial window(s)\n" if window else "}\n")
        if output_format == "json":
            # the combined report is the one analyze gives with its surrogates
            a = corpus / "a.txt"
            symbols = [int(ch) for ch in a.read_text()]
            unit = SymbolSequence(Alphabet(2), symbols[:60] if window else symbols)
            expected = analyze(unit, q_max=3, surrogates=3, seed=9)
            label = f"{a}@0" if window else str(a)
            assert out.splitlines()[0] == emit_report(replace(expected, source=label))

    def test_output_file_matches_stdout(self, tmp_path, capsys):
        path = tmp_path / "bits.txt"
        path.write_text("0110" * 100)
        out_file = tmp_path / "reports.jsonl"
        code, out, _ = run_cli(
            capsys, "--input", str(path), "--surrogates", "2", "--qmax", "2"
        )
        assert code == 0
        code2 = main([
            "--input", str(path), "--surrogates", "2", "--qmax", "2",
            "--output", str(out_file),
        ])
        capsys.readouterr()
        assert code2 == 0
        assert out_file.read_text() == out


class TestEntryPoint:
    def test_module_run_matches_main(self, capsys):
        argv = ("--generate", "constant:symbol=0,n=2", "--qmax", "1", "--surrogates", "0")
        proc = subprocess.run(
            [sys.executable, "-m", "lzwmetrics", *argv],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out
        assert (proc.returncode, proc.stdout) == (code, out)
