import math

import numpy as np
import pytest

from lzwmetrics import (
    Alphabet,
    CorruptStreamError,
    SymbolSequence,
    decode,
    description_length_bound,
    encode,
)

from oracles import constant_run_codes, footnote_bits, naive_lzw_codes


def seq(symbols, A=2):
    return SymbolSequence(Alphabet(A), np.array(symbols, dtype=np.int64))


class TestHandTraces:
    def test_0110(self):
        r = encode(seq([0, 1, 1, 0]))
        assert list(r.codes) == [0, 1, 1, 0]
        assert r.phrase_count == 4
        assert r.dict_size == 5

    def test_0000(self):
        r = encode(seq([0, 0, 0, 0]))
        assert list(r.codes) == [0, 2, 0]
        assert r.phrase_count == 3

    def test_single_symbol(self):
        r = encode(seq([0]))
        assert list(r.codes) == [0]
        assert r.phrase_count == 1
        assert r.dict_size == 2

    def test_decode_inverts_hand_traces(self):
        assert decode([0, 1, 1, 0], Alphabet(2)) == seq([0, 1, 1, 0])
        assert decode([0, 2, 0], Alphabet(2)) == seq([0, 0, 0, 0])
        assert decode([0], Alphabet(2)) == seq([0])

    def test_self_referential_code(self):
        # "000" emits [0, 2] where 2 is defined by the emission itself.
        r = encode(seq([0, 0, 0]))
        assert list(r.codes) == [0, 2]
        assert decode(r.codes, Alphabet(2)) == seq([0, 0, 0])


class TestDescriptionLength:
    def test_clamped_binary_codes(self):
        assert encode(seq([0, 1, 1, 0])).description_length_bits == 4.0
        assert encode(seq([0, 0, 0, 0])).description_length_bits == 3.0
        assert encode(seq([0])).description_length_bits == 1.0

    def test_matches_field(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            s = seq(rng.integers(0, 2, int(rng.integers(1, 300))))
            r = encode(s)
            repriced = encode(decode(r.codes, s.alphabet)).description_length_bits
            assert repriced == r.description_length_bits
            assert r.description_length_bits == footnote_bits(list(r.codes))

    def test_bound_examples(self):
        assert description_length_bound(4, 2) == pytest.approx(4 * math.log2(5))
        assert description_length_bound(1, 2) == 1.0
        assert description_length_bound(3, 2) == 6.0

    def test_bound_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            description_length_bound(0, 2)
        with pytest.raises(ValueError):
            description_length_bound(3, 1)


class TestAgainstNaiveParser:
    def test_codes_match_literal_longest_match_search(self):
        rng = np.random.default_rng(22)
        for _ in range(400):
            A = int(rng.integers(2, 6))
            n = int(rng.integers(1, 200))
            symbols = rng.integers(0, A, n)
            r = encode(seq(symbols, A=A))
            assert list(r.codes) == naive_lzw_codes(symbols.tolist(), A)

    @pytest.mark.parametrize("A", [2, 16, 17, 40, 1000])
    def test_long_phrases_on_both_sides_of_the_table_cutoff(self, A):
        # runs over three symbols spread across 0..A-1 build a deep dictionary
        rng = np.random.default_rng(A)
        used = rng.choice(A, size=3, replace=A < 3)
        symbols = used[np.cumsum(rng.random(3000) < 0.2) % 3]
        r = encode(seq(symbols, A=A))
        assert list(r.codes) == naive_lzw_codes(symbols.tolist(), A)
        assert r.phrase_count < len(symbols) / 5

    @pytest.mark.parametrize("A", [17, 256])
    def test_iid_codes_past_the_table_cutoff(self, A):
        # i.i.d. input over a whole alphabet above 16 grows the hashed
        # parser's dictionary by thousands of entries
        symbols = np.random.default_rng(40 + A).integers(0, A, 20_000)
        r = encode(seq(symbols, A=A))
        assert list(r.codes) == naive_lzw_codes(symbols.tolist(), A)
        assert r.dict_size > A + 5000

    @pytest.mark.parametrize("A, n", [(2, 16000), (3, 9000), (16, 3000)])
    def test_codes_across_child_column_growth(self, A, n):
        # The dense parser's child columns hold slots for 64 entries and all
        # grow by an eighth whenever the next new entry would fall past them.
        # A prefix that ends on a phrase boundary parses to a prefix of the
        # codes, so each growth step is checked on prefixes whose last new
        # entry is the old capacity (growth on the final miss), one less
        # (growth due, no miss left) and one more (a write after growth).
        alphabet = Alphabet(A)
        symbols = np.random.default_rng(30 + A).integers(0, A, n)
        codes = naive_lzw_codes(symbols.tolist(), A)
        caps, cap = [], 64
        while cap - A + 3 <= len(codes):
            caps.append(cap)
            cap += cap >> 3
        assert len(caps) >= 3 and caps[-1] > 1024
        assert list(encode(seq(symbols, A=A)).codes) == codes
        for cap in caps:
            # After k phrases the last new entry is A + k - 2.
            for k in (cap - A + 1, cap - A + 2, cap - A + 3):
                end = len(decode(codes[:k], alphabet))
                assert list(encode(seq(symbols[:end], A=A)).codes) == codes[:k]
        last = caps[-1] - A + 2
        prefix = symbols[: len(decode(codes[:last], alphabet))].tolist()
        assert list(encode(seq(prefix, A=A)).codes) == naive_lzw_codes(prefix, A)

    def test_constant_sequence_closed_form(self):
        for n in (1, 2, 3, 10, 100, 1000, 12345):
            r = encode(seq([0] * n))
            expected = constant_run_codes(n)
            assert list(r.codes) == expected
            assert r.description_length_bits == footnote_bits(expected)


class TestRoundTrip:
    def test_random_corpus(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            A = int(rng.integers(2, 9))
            n = int(rng.integers(1, 513))
            s = seq(rng.integers(0, A, n), A=A)
            r = encode(s)
            assert decode(r.codes, s.alphabet) == s

    def test_decode_rejects_forward_reference(self):
        with pytest.raises(CorruptStreamError):
            decode([0, 5], Alphabet(2))

    def test_decode_rejects_bad_initial_code(self):
        with pytest.raises(CorruptStreamError):
            decode([2, 0], Alphabet(2))

    def test_decode_rejects_negative_code(self):
        with pytest.raises(CorruptStreamError):
            decode([0, -1], Alphabet(2))

    def test_decode_rejects_empty_stream(self):
        with pytest.raises(ValueError):
            decode([], Alphabet(2))


class TestParseProperties:
    def test_phrase_count_bounded_by_length(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            n = int(rng.integers(1, 600))
            r = encode(seq(rng.integers(0, 2, n)))
            assert 1 <= r.phrase_count <= n
            assert r.phrase_count == len(r.codes)
            assert r.dict_size == 2 + r.phrase_count - 1

    def test_codes_precede_dictionary_growth(self):
        # the i-th emission may only reference entries that existed before
        # the i-th insertion
        rng = np.random.default_rng(25)
        for _ in range(100):
            A = int(rng.integers(2, 5))
            r = encode(seq(rng.integers(0, A, 400), A=A))
            assert all(code < A + i for i, code in enumerate(r.codes))
            assert max(r.codes) < r.dict_size

    def test_constant_phrase_growth_is_sqrt(self):
        c1 = encode(seq([0] * 10**4)).phrase_count
        c4 = encode(seq([0] * (4 * 10**4))).phrase_count
        assert c4 / c1 == pytest.approx(2.0, rel=0.2)

    def test_description_length_within_bound_slack(self):
        # The Eq-style phrase bound prices codes at log2(c + log2 A) bits;
        # actual emitted codes can reach A + c - 2, which costs at most an
        # extra log2(A) per phrase on top of the clamp slack.
        rng = np.random.default_rng(26)
        for _ in range(2000):
            A = int(rng.integers(2, 9))
            n = int(rng.integers(1, 513))
            r = encode(seq(rng.integers(0, A, n), A=A))
            ceiling = r.bound_bits + r.phrase_count + math.log2(A)
            assert r.description_length_bits <= ceiling

    def test_bound_bits_monotone_in_phrase_count(self):
        for A in (2, 4, 8):
            values = [description_length_bound(c, A) for c in range(1, 2000)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_description_length_tracks_phrase_count_on_average(self):
        # At fixed (A, n) the mean description length rises with the phrase
        # count; individual parses can invert the order because the max
        # emitted code varies at fixed c.
        rng = np.random.default_rng(27)
        by_c = {}
        for _ in range(1500):
            r = encode(seq(rng.integers(0, 2, 256)))
            by_c.setdefault(r.phrase_count, []).append(r.description_length_bits)
        means = [sum(v) / len(v) for _, v in sorted(by_c.items())]
        assert all(a < b for a, b in zip(means, means[1:]))
