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
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from lzwmetrics import (
    Q_MAX_LIMIT,
    Alphabet,
    DegenerateProcessError,
    ProcessSpec,
    SymbolSequence,
    analyze,
    decode,
    empirical_block_entropy,
    empirical_h0,
    empirical_hq,
    encode,
    entropy_profile,
    generate,
    shuffle,
    stationary_distribution,
)
from lzwmetrics.cli import _load_csv_series, _read_csv_rows, csv_header, emit_report
from lzwmetrics.generators import _DRAW_CHUNK, _sample_markov

from oracles import (
    closed_classes,
    footnote_bits,
    markov_sample,
    naive_lzw_codes,
    stationary_by_eigendecomposition,
)

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


def _sorted_block_entropy(s, q):
    # Reference counter: each order packs its codes from scratch and sorts
    # them; windows too wide for an int64 code are sorted row-wise.
    A, data, total = s.alphabet.size, s.data, len(s) - q + 1
    if q * math.log2(A) <= 62:
        grams = np.zeros(total, dtype=np.int64)
        for j in range(q):
            grams *= A
            grams += data[j : j + total]
        _, counts = np.unique(grams, return_counts=True)
    else:
        windows = np.lib.stride_tricks.sliding_window_view(data, q)
        _, counts = np.unique(windows, axis=0, return_counts=True)
    probs = counts / total
    return float(-(probs * np.log2(probs)).sum())


def _counters(s, q_hi):
    # The counter the profile uses at each order 1..q_hi: codes below
    # ``size`` are counted directly while size <= n - q + 1 and sorted
    # otherwise; codes whose extension could leave int64 are renumbered by
    # rank among the distinct (q-1)-grams first.
    A, n = s.alphabet.size, len(s)
    size, labels = A, ["direct" if A <= n else "sort"]
    for q in range(2, q_hi + 1):
        renumber = size * A > 2**63
        if renumber:
            size = len(np.unique(np.lib.stride_tricks.sliding_window_view(s.data, q - 1), axis=0))
        size *= A
        labels.append("renumbered" if renumber else "direct" if size <= n - q + 1 else "sort")
    return labels


@st.composite
def profile_cases(draw):
    # A = 2 over ~100 symbols counts by direct addressing up to q = 6; wide
    # alphabets sort, and renumber at q = 8 (A = 300) or q = 16 (A = 16).
    A = draw(st.sampled_from([2, 3, 16, 300]) | st.integers(2, 64))
    used = draw(st.lists(st.integers(0, A - 1), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(2, 120))
    symbols = draw(st.lists(st.sampled_from(used), min_size=n, max_size=n))
    limit = min(n - 1, Q_MAX_LIMIT)
    q_max = draw(st.just(limit) | st.integers(1, limit))
    return SymbolSequence(Alphabet(A), np.array(symbols, dtype=np.int64)), q_max


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(profile_cases())
@example((SymbolSequence(Alphabet(2), np.arange(100) * 7 // 3 % 2), 5))  # direct addressing
@example((SymbolSequence(Alphabet(17), np.arange(30) % 17), 3))  # sorting from q = 2
@example((SymbolSequence(Alphabet(16), np.arange(40) % 5), 16))  # renumbered at q = 16
@example((SymbolSequence(Alphabet(300), np.arange(60) * 7 % 300), 16))  # renumbered twice
def test_entropy_matches_the_sorting_reference_exactly(case):
    s, q_max = case
    blocks = [_sorted_block_entropy(s, q) for q in range(1, q_max + 2)]
    hq = [max(0.0, hi - lo) for lo, hi in zip(blocks, blocks[1:])]
    for q, counter in enumerate(_counters(s, q_max + 1), start=1):
        event(f"counter: {counter}")
        assert empirical_block_entropy(s, q) == blocks[q - 1]
    for q in range(1, q_max + 1):
        assert empirical_hq(s, q) == hq[q - 1]
    profile = entropy_profile(s, q_max)
    assert profile.h0 == blocks[0]
    assert list(profile.hq) == hq


@SMALL
@given(sequences(), st.integers(0, 2**32))
def test_shuffle_keeps_the_symbol_multiset(s, seed):
    t = shuffle(s, seed)
    assert t.alphabet == s.alphabet
    assert sorted(t.data.tolist()) == sorted(s.data.tolist())


class _Uniforms:
    """Serves fixed doubles in the order ``Generator.random`` would draw them."""

    def __init__(self, values):
        self._values = values
        self._pos = 0

    def random(self, size=None):
        k = 1 if size is None else size
        out = self._values[self._pos : self._pos + k]
        self._pos += k
        return float(out[0]) if size is None else out


def test_markov_draw_past_a_short_row_total_lands_on_a_positive_symbol():
    # The row sums to 1 - 2^-50, inside the row-sum tolerance; the draw
    # 1 - 2^-53 lies past its total and must not pick symbol 2, whose
    # probability is 0.
    row = [0.7, 0.3 - 2**-50, 0.0]
    spec = ProcessSpec.markov([row] * 3, alphabet_size=3)
    pi = stationary_distribution(spec.transition_table, 3, 1)
    draws = np.array([0.0, 1 - 2**-53])
    assert _sample_markov(spec, 2, _Uniforms(draws)).tolist() == [0, 1]
    expected = markov_sample(spec.transition_table, 3, 1, pi, 2, _Uniforms(draws))
    assert expected.tolist() == [0, 1]


@st.composite
def markov_cases(draw):
    A = draw(st.integers(2, 5))
    m = draw(st.integers(1, 3))
    # Zero entries anywhere but in one anchor column, whose weight keeps every
    # state reaching the anchor run, so the stationary law is unique.
    anchor = draw(st.integers(0, A - 1))
    weights = st.lists(st.integers(0, 3), min_size=A, max_size=A)
    rows = draw(st.lists(weights, min_size=A**m, max_size=A**m))
    table = np.array(rows, dtype=np.float64)
    table[:, anchor] += 3.0
    table /= table.sum(axis=1, keepdims=True)
    if draw(st.booleans()):
        # the clip case: each row's cumulative total ends just below 1.0
        for row in table:
            last = np.flatnonzero(row)[-1]
            while np.cumsum(row)[-1] >= 1.0:
                row[last] = np.nextafter(row[last], 0.0)
    C = _DRAW_CHUNK
    lengths = {
        "1": 1, "m": m, "m+1": m + 1,
        "C-1": C - 1, "C": C, "C+1": C + 1, "2C+3": 2 * C + 3,
    }
    length = draw(st.sampled_from(list(lengths)))
    n = lengths[length]
    seed = draw(st.integers(0, 2**63))
    return ProcessSpec.markov(table, alphabet_size=A), n, seed, length


@SMALL
@given(markov_cases())
def test_markov_sampler_matches_the_per_symbol_loop(case):
    spec, n, seed, length = case
    A, m, table = spec.alphabet_size, spec.order, spec.transition_table
    pi = stationary_distribution(table, A, m)
    expected = markov_sample(table, A, m, pi, n, np.random.default_rng(seed))
    assert np.array_equal(generate(spec, n, seed).data, expected)

    # The same stream with edge draws spliced in: every row's cut points and
    # the largest double below 1.0, which lands past a short row's total.
    totals = np.cumsum(table, axis=1)
    draws = np.random.default_rng(seed).random(max(n - m, 0) + 1)
    edges = np.append(totals.ravel(), np.nextafter(1.0, 0.0))
    spots = np.random.default_rng(seed).integers(0, draws.size, draws.size // 50)
    draws[spots] = np.resize(edges, spots.size)
    expected = markov_sample(table, A, m, pi, n, _Uniforms(draws))
    assert np.array_equal(_sample_markov(spec, n, _Uniforms(draws)), expected)

    event(f"n: {length}")
    event(f"table rows end below 1.0: {bool((totals[:, -1] < 1.0).any())}")
    event(f"zero entries: {bool((table == 0).any())}")
    if n > m:
        contexts = np.lib.stride_tricks.sliding_window_view(expected[:-1], m)
        states = contexts @ A ** np.arange(m - 1, -1, -1)
        clipped = int((draws[1:] >= totals[states, -1]).sum())
        event(f"draws past the row total: {'yes' if clipped else 'no'}")
        event(f"draws cross a chunk boundary: {n - m > _DRAW_CHUNK}")


@st.composite
def support_tables(draw):
    # Row-stochastic tables whose zero share varies per table (1/4 to 7/10
    # of the weights), so irreducible, transient, periodic and multi-class
    # chains all occur.  A row of zero weights gets one drawn symbol.
    A = draw(st.integers(2, 4))
    m = draw(st.integers(1, 3))
    zeros = draw(st.integers(0, 6))
    weight = st.integers(-zeros, 3).map(lambda w: max(w, 0))
    rows = st.lists(st.lists(weight, min_size=A, max_size=A), min_size=A**m, max_size=A**m)
    table = np.array(draw(rows), dtype=np.float64)
    for row in table:
        if not row.any():
            row[draw(st.integers(0, A - 1))] = 1.0
    return table / table.sum(axis=1, keepdims=True), A, m


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(support_tables())
def test_stationary_law_is_unique_exactly_when_one_class_is_closed(case):
    table, A, m = case
    classes = closed_classes(table, A, m)
    event(f"closed classes: {min(len(classes), 3)}")
    event(f"transient states: {A**m > sum(map(len, classes))}")
    if len(classes) > 1:
        with pytest.raises(DegenerateProcessError, match="not unique"):
            stationary_distribution(table, A, m)
        with pytest.raises(DegenerateProcessError):
            ProcessSpec.markov(table, alphabet_size=A)
        return
    pi = stationary_distribution(table, A, m)
    ProcessSpec.markov(table, alphabet_size=A)
    assert np.abs(pi - stationary_by_eigendecomposition(table, A, m)).max() <= 1e-9
    outside = np.ones(A**m, dtype=bool)
    outside[list(classes[0])] = False
    assert (pi[outside] == 0.0).all()


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
