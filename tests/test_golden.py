"""Byte-identity corpus: fixed CLI runs against their recorded outputs.

Each case writes its inputs from fixed seeds into a fresh working
directory, runs ``main()`` in-process with relative paths, and compares
the exit status, stdout, stderr and the ``--output`` file (if any) with
``golden.json`` exactly.  Every run stays below the pool's break-even
work, so it runs in-process.  The expected outputs are data, recorded
once from :func:`run_case`; a change that alters any of these bytes on
purpose must say which and why, and record the file anew.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from lzwmetrics.cli import main

GOLDEN = Path(__file__).with_name("golden.json")


def _symbol_text(symbols, line=60):
    text = "".join(str(int(s)) for s in symbols)
    return "".join(text[i : i + line] + "\n" for i in range(0, len(text), line))


def _tables(root):
    (root / "t3.csv").write_text("0.5,0.3,0.2\n0.1,0.6,0.3\n0.25,0.25,0.5\n")
    (root / "t2.csv").write_text("0.9,0.1\n0.4,0.6\n0.3,0.7\n0.2,0.8\n")


def _symbol_dir(root):
    rng = np.random.default_rng(11)
    folder = root / "sym"
    folder.mkdir()
    (folder / "a.txt").write_text(_symbol_text(rng.integers(0, 4, 3000)))
    # 2,500 symbols: two full windows of 1,000 and a partial one
    (folder / "b.txt").write_text(_symbol_text(np.repeat(rng.integers(0, 4, 500), 5)))
    (folder / "c.txt").write_text("0123\n01x3\n")
    (folder / "d.txt").write_text("3\n")


def _decimal(root):
    rng = np.random.default_rng(17)
    (root / "dec.txt").write_text(_symbol_text(rng.integers(0, 10, 4000)))


def _recordings(root):
    rng = np.random.default_rng(5)
    x, values = 0.0, []
    for e in rng.standard_normal(2400).tolist():
        x = 0.8 * x + e
        values.append(x)
    rows = "".join(f"{i},{v:.6f}\n" for i, v in enumerate(values))
    (root / "rec.csv").write_text("t,value\n" + rows)
    quoted = "".join(f'"{i}","{v:.4f}"\n' for i, v in enumerate(values[:900]))
    (root / "quoted.csv").write_text(quoted)


CASES = {
    "bernoulli": (None, ["--generate", "bernoulli:p=0.3,n=5000", "--seed", "4", "--surrogates", "3"]),
    "markov-eps": (None, ["--generate", "markov:eps=0.1,n=20000", "--seed", "7", "--surrogates", "3"]),
    "markov-file-3x3": (
        _tables,
        ["--generate", "markov-file:t3.csv,n=12000", "--seed", "2", "--surrogates", "2", "--qmax", "6"],
    ),
    "markov-file-order-2": (
        _tables,
        ["--generate", "markov-file:t2.csv,n=12000", "--seed", "9", "--surrogates", "2",
         "--output-format", "csv"],
    ),
    "periodic": (None, ["--generate", "periodic:pattern=0120,n=3000", "--surrogates", "2"]),
    "constant": (
        None,
        ["--generate", "constant:symbol=0,n=3000", "--surrogates", "1", "--output-format", "csv"],
    ),
    "symbols-dir-windows": (
        _symbol_dir,
        ["--input", "sym", "--alphabet-size", "4", "--window", "1000", "--surrogates", "2",
         "--seed", "3"],
    ),
    "symbols-dir-whole": (
        _symbol_dir,
        ["--input", "sym", "--alphabet-size", "4", "--surrogates", "1", "--qmax", "2",
         "--output-format", "csv"],
    ),
    "csv-column-quantiles-windows": (
        _recordings,
        ["--input", "rec.csv", "--format", "csv", "--column", "value", "--digitizer",
         "quantiles:4", "--window", "500", "--surrogates", "1", "--output-format", "csv"],
    ),
    "csv-quoted-median": (
        _recordings,
        ["--input", "quoted.csv", "--format", "csv", "--column", "1", "--surrogates", "2",
         "--seed", "6"],
    ),
    "csv-whole-json": (
        _recordings,
        ["--input", "rec.csv", "--format", "csv", "--column", "1", "--digitizer", "quantiles:3",
         "--surrogates", "0", "--qmax", "5"],
    ),
    # A = 300 stores symbols as uint16, from a symbol file and from a digitizer.
    "symbols-alphabet-300": (
        _decimal,
        ["--input", "dec.txt", "--alphabet-size", "300", "--surrogates", "2", "--seed", "8"],
    ),
    "csv-quantiles-300-windows": (
        _recordings,
        ["--input", "rec.csv", "--format", "csv", "--column", "value", "--digitizer",
         "quantiles:300", "--window", "1200", "--surrogates", "2", "--qmax", "2"],
    ),
    "output-file": (
        _symbol_dir,
        ["--input", "sym", "--alphabet-size", "4", "--window", "700", "--surrogates", "0",
         "--output-format", "csv", "--output", "out.csv"],
    ),
}


def run_case(name, root, capsys):
    """Run one case in ``root``; returns its observed outputs."""
    setup, argv = CASES[name]
    if setup is not None:
        setup(root)
    code = main(list(argv))
    captured = capsys.readouterr()
    observed = {"exit": code, "stdout": captured.out, "stderr": captured.err}
    if "--output" in argv:
        observed["output"] = (root / argv[argv.index("--output") + 1]).read_text(encoding="utf-8")
    return observed


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_the_corpus(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert run_case(name, tmp_path, capsys) == expected


def test_the_corpus_has_every_case():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(CASES)
