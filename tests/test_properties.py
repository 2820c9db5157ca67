"""Property tests: invariants over many small random sequences.

Examples are drawn deterministically (``derandomize=True``, no example
database), so every run checks the same cases.
"""

import csv
import json
import math
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lzwmetrics import (
    Alphabet,
    SymbolSequence,
    analyze,
    decode,
    empirical_h0,
    empirical_hq,
    encode,
    entropy_profile,
    shuffle,
)
from lzwmetrics.cli import _load_csv_series, _read_csv_rows, csv_header, emit_report

from oracles import footnote_bits, naive_lzw_codes

SMALL = settings(max_examples=60, derandomize=True, database=None, deadline=None)


@st.composite
def sequences(draw, min_size=1, max_size=60):
    # 16 and 17 straddle the encoder's dense/hash table cutoff
    A = draw(st.sampled_from([2, 16, 17]) | st.integers(2, 40))
    # up to five distinct symbols anywhere in 0..A-1: the whole alphabet
    # when A <= 5, and few enough over a wide one that phrases repeat and grow
    used = draw(st.lists(st.integers(0, A - 1), min_size=1, max_size=5, unique=True))
    symbols = draw(st.lists(st.sampled_from(used), min_size=min_size, max_size=max_size))
    return SymbolSequence(Alphabet(A), np.array(symbols, dtype=np.int64))


@SMALL
@given(sequences())
def test_encode_matches_the_naive_oracle(s):
    assert list(encode(s).codes) == naive_lzw_codes(s.data.tolist(), s.alphabet.size)


@SMALL
@given(sequences())
def test_decode_inverts_encode(s):
    assert decode(encode(s).codes, s.alphabet) == s


@SMALL
@given(sequences())
def test_phrase_count_and_dictionary_size(s):
    r = encode(s)
    assert r.phrase_count <= len(s)
    assert r.dict_size == s.alphabet.size + r.phrase_count - 1


@SMALL
@given(sequences())
def test_description_length_is_the_footnote_price(s):
    r = encode(s)
    assert r.description_length_bits == footnote_bits(r.codes)


@SMALL
@given(sequences(min_size=2), st.integers(1, 6))
def test_profile_matches_the_single_quantities_exactly(s, q_max):
    q_max = min(q_max, len(s) - 1)
    profile = entropy_profile(s, q_max)
    assert profile.h0 == empirical_h0(s)
    for q in range(1, q_max + 1):
        assert profile.hq[q - 1] == empirical_hq(s, q)


@SMALL
@given(sequences(min_size=2), st.integers(1, 6))
def test_entropy_bounds(s, q_max):
    profile = entropy_profile(s, min(q_max, len(s) - 1))
    assert all(h >= 0.0 for h in profile.hq)
    assert profile.h0 <= math.log2(s.alphabet.size) + 1e-12


@SMALL
@given(sequences(), st.integers(0, 2**32))
def test_shuffle_keeps_the_symbol_multiset(s, seed):
    t = shuffle(s, seed)
    assert t.alphabet == s.alphabet
    assert sorted(t.data.tolist()) == sorted(s.data.tolist())


@SMALL
@given(sequences(min_size=2), st.integers(1, 4), st.integers(0, 2))
def test_csv_and_json_share_one_schema(s, q_max, surrogates):
    report = analyze(s, q_max=min(q_max, len(s) - 1), surrogates=surrogates, seed=1)
    header = next(csv.reader([csv_header(4)]))
    row = next(csv.reader([emit_report(report, "csv", q_max=4)]))
    folded = [name for name, _ in groupby("hq" if h.startswith("hq_") else h for h in header)]
    assert folded == list(json.loads(emit_report(report)))
    assert len(row) == len(header)


# Cells both readers take, and cells where np.loadtxt and float() differ:
# underscores, a non-ASCII digit, Unicode spaces, comment and quote marks,
# blank and whitespace-only cells.
_NUMBERS = ["1", "-2.5", "3e2", " 4 ", ".5", "+6.", "1e400", "infinity", "-inf", "nan"]
_TRICKY = [
    "1_0", "\u0661", "\xa02", "\x0c", "3\x0c", "#", "#1", '"', '"7"', '"8', "", " ", "\t",
    "x", "value",
]


@st.composite
def csv_files(draw):
    width = draw(st.integers(1, 3))
    cell = st.sampled_from(_NUMBERS * 4 + _TRICKY)
    row = st.lists(cell, min_size=width, max_size=width) | st.lists(cell, max_size=4)
    names = st.sampled_from(["t", "value", " value ", "1", "#"])
    header = st.lists(names, min_size=width, max_size=width)
    rows = draw(st.lists(row, max_size=8))
    if draw(st.booleans()):
        rows.insert(0, draw(header))
    endings = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(",".join(r) + draw(endings) for r in rows)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text, draw(st.sampled_from([None, "0", "1", "value"]))


def _csv_outcome(load, path, column):
    try:
        return load(path, column).samples.tobytes()
    except ValueError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "case.csv"


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(csv_files())
def test_csv_loader_matches_the_row_loop(csv_path, case):
    # The row loop is the reference: same float64 bytes or the same message.
    text, column = case
    csv_path.write_bytes(text.encode("utf-8"))
    path = str(csv_path)
    expected = _csv_outcome(_read_csv_rows, path, column)
    assert _csv_outcome(_load_csv_series, path, column) == expected
