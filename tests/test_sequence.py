import pickle
import re
import tracemalloc

import numpy as np
import pytest

from lzwmetrics import (
    Alphabet,
    NumericSeries,
    SymbolSequence,
    binarize_median,
    digitize_quantiles,
    shuffle,
)


def seq(symbols, A=2):
    return SymbolSequence(Alphabet(A), np.array(symbols, dtype=np.int64))


class TestTypes:
    def test_alphabet_rejects_unary(self):
        with pytest.raises(ValueError):
            Alphabet(1)

    def test_sequence_rejects_empty(self):
        with pytest.raises(ValueError):
            seq([])

    def test_sequence_rejects_out_of_range_symbols(self):
        with pytest.raises(ValueError):
            seq([0, 2], A=2)
        with pytest.raises(ValueError):
            seq([-1, 0], A=2)

    def test_sequence_is_immutable(self):
        s = seq([0, 1, 0])
        with pytest.raises(ValueError):
            s.data[0] = 1

    def test_numeric_series_rejects_nan(self):
        with pytest.raises(ValueError):
            NumericSeries([1.0, float("nan"), 2.0])

    def test_numeric_series_rejects_empty(self):
        with pytest.raises(ValueError):
            NumericSeries([])


_STORAGE_ALPHABETS = [2, 16, 17, 255, 256, 257, 65536, 65537]


def _inputs(A):
    """One symbol array over 0..A-1, both ends included, in every input form."""
    values = np.random.default_rng(A).integers(0, A, 500)
    values[:2] = [0, A - 1]
    return {
        "list": values.tolist(),
        "int64": values.astype(np.int64),
        "uint64": values.astype(np.uint64),
        "bool": values % 2 == 1,
        "float": values + 0.75,
    }


class TestStorage:
    @pytest.mark.parametrize("kind", ["list", "int64", "uint64", "bool", "float"])
    @pytest.mark.parametrize("A", _STORAGE_ALPHABETS)
    def test_smallest_unsigned_type_holding_the_alphabet(self, A, kind):
        data = _inputs(A)[kind]
        s = SymbolSequence(Alphabet(A), data)
        assert s.data.dtype == np.min_scalar_type(A - 1)
        # the values int64 conversion gives, float truncation included
        assert np.array_equal(s.data, np.array(data, dtype=np.int64))
        assert not s.data.flags.writeable
        if isinstance(data, np.ndarray):
            assert not np.shares_memory(s.data, data)

    @pytest.mark.parametrize("A", _STORAGE_ALPHABETS)
    def test_rejections(self, A):
        bounds = f"symbols must lie in 0..{A - 1} for an alphabet of size {A}"
        cases = [
            ([0, -1], bounds),
            (np.array([0, -1], dtype=np.int8), bounds),
            (np.array([-0.5, -1.5]), bounds),
            ([0, A], bounds),
            (np.array([0, A], dtype=np.int64), bounds),
            (np.array([0, A], dtype=np.uint64), bounds),
            (np.array([0, 2**63], dtype=np.uint64), bounds),
            (np.array([0, 2**64 - 1], dtype=np.uint64), bounds),
            (np.zeros((2, 2), dtype=np.int64), "symbol data must be one-dimensional"),
            ([[0, 1]], "symbol data must be one-dimensional"),
            (np.int64(0), "symbol data must be one-dimensional"),
            ([], "symbol sequence must contain at least one symbol"),
            (np.array([], dtype=np.uint8), "symbol sequence must contain at least one symbol"),
        ]
        for data, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                SymbolSequence(Alphabet(A), data)


class _TamperedPickle:
    def __reduce__(self):
        return SymbolSequence, (Alphabet(2), np.array([0, 2], dtype=np.uint8))


class TestPickle:
    @pytest.mark.parametrize("A", [2, 256, 257, 300])
    def test_round_trip(self, A):
        s = seq(np.random.default_rng(A).permutation(np.arange(1000) % A), A=A)
        back = pickle.loads(pickle.dumps(s))
        assert back == s
        assert back.data.dtype == np.min_scalar_type(A - 1)
        assert not back.data.flags.writeable

    def test_one_byte_per_symbol_up_to_256_symbols(self):
        n = 10**5
        s = seq(np.arange(n) % 256, A=256)
        assert len(pickle.dumps(s)) < n + 1024

    def test_unpickling_validates_the_symbols(self):
        with pytest.raises(ValueError, match="symbols must lie in 0..1"):
            pickle.loads(pickle.dumps(_TamperedPickle()))


class TestBinarizeMedian:
    def test_distinct_samples(self):
        out = binarize_median(NumericSeries([1.0, 2.0, 3.0, 4.0]))
        assert out == seq([0, 0, 1, 1])

    def test_single_sample_maps_to_zero(self):
        assert binarize_median(NumericSeries([5.0])) == seq([0])

    def test_ties_map_to_lower_symbol(self):
        out = binarize_median(NumericSeries([7.0, 7.0, 7.0, 7.0]))
        assert out == seq([0, 0, 0, 0])

    def test_even_distinct_samples_split_exactly(self):
        # n distinct samples, n even: exactly n/2 land strictly above the
        # midpoint median, so the empirical entropy is exactly 1 bit.
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = 2 * int(rng.integers(1, 200))
            samples = rng.permutation(rng.random(n))
            out = binarize_median(NumericSeries(samples))
            assert int(out.data.sum()) == n // 2

    def test_samples_whose_sum_overflows(self):
        out = binarize_median(NumericSeries([1e308, 1.5e308, 1.2e308, 1.7e308]))
        assert out == seq([0, 1, 0, 1])
        out = binarize_median(NumericSeries([-1e308, -1.5e308, -1.2e308, -1.7e308]))
        assert out == seq([1, 0, 1, 0])

    def test_samples_whose_difference_overflows(self):
        assert binarize_median(NumericSeries([1.7e308, -1.7e308])) == seq([1, 0])
        out = binarize_median(NumericSeries([-1e308, 1.5e308, -1.2e308, 1.7e308, 0.0]))
        assert out == seq([0, 1, 0, 1, 0])

    def test_odd_distinct_samples_split_off_by_one(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = 2 * int(rng.integers(1, 200)) + 1
            out = binarize_median(NumericSeries(rng.random(n)))
            ones = int(out.data.sum())
            assert ones == (n - 1) // 2


class TestDigitizeQuantiles:
    def test_two_levels_match_median_rule(self):
        rng = np.random.default_rng(13)
        huge = np.finfo(np.float64).max
        for _ in range(50):
            size = int(rng.integers(1, 300))
            ordinary = rng.normal(size=size)
            # draws near the float64 limit: two of one sign sum to inf, and
            # two of opposite signs differ by inf
            magnitudes = rng.uniform(0.5, 1, size) * huge
            same_sign = rng.choice([-1, 1]) * magnitudes
            mixed_signs = rng.choice([-1, 1], size) * magnitudes
            for samples in (ordinary, same_sign, mixed_signs):
                series = NumericSeries(samples)
                out = binarize_median(series)
                assert digitize_quantiles(series, 2) == out
                # distinct samples: all above the middle one(s) map to 1
                assert int(out.data.sum()) == size // 2

    def test_cut_points_across_the_float64_range(self):
        # each cut sits on a sample, but numpy still interpolates toward
        # the next one, across a difference of 3.2e308
        series = NumericSeries([1.7e308, -1.6e308, 1.6e308, -1.7e308])
        assert digitize_quantiles(series, 3) == seq([2, 0, 1, 0], A=3)

    def test_quartiles_hand_example(self):
        series = NumericSeries([10, 20, 30, 40, 50, 60, 70, 80])
        assert digitize_quantiles(series, 4) == seq([0, 0, 1, 1, 2, 2, 3, 3], A=4)

    def test_constant_series_occupies_lowest_bin(self):
        out = digitize_quantiles(NumericSeries([1.0, 1.0, 1.0]), 3)
        assert out == seq([0, 0, 0], A=3)

    def test_rejects_fewer_than_two_levels(self):
        with pytest.raises(ValueError):
            digitize_quantiles(NumericSeries([1.0, 2.0]), 1)

    def test_symbols_stay_below_levels(self):
        rng = np.random.default_rng(14)
        for levels in (2, 3, 5, 9):
            series = NumericSeries(rng.normal(size=500))
            out = digitize_quantiles(series, levels)
            assert out.alphabet.size == levels
            assert int(out.data.max()) < levels

    def test_near_uniform_occupancy_on_distinct_samples(self):
        rng = np.random.default_rng(15)
        for levels in (2, 3, 4, 7):
            n = 997
            samples = rng.permutation(np.arange(n, dtype=np.float64))
            out = digitize_quantiles(NumericSeries(samples), levels)
            counts = np.bincount(out.data, minlength=levels)
            slack = np.ceil(n / levels) / n
            assert np.abs(counts / n - 1.0 / levels).max() <= slack + 1e-12


class TestShuffle:
    def test_constant_sequence_is_fixed_point(self):
        s = seq([0, 0, 0, 0])
        assert shuffle(s, 123) == s

    def test_histogram_preserved_exactly(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            A = int(rng.integers(2, 7))
            s = seq(rng.integers(0, A, int(rng.integers(1, 400))), A=A)
            t = shuffle(s, int(rng.integers(0, 2**32)))
            assert len(t) == len(s)
            assert np.array_equal(
                np.bincount(s.data, minlength=A), np.bincount(t.data, minlength=A)
            )

    def test_same_seed_same_permutation(self):
        s = seq(np.arange(100) % 2)
        assert shuffle(s, 42) == shuffle(s, 42)

    @pytest.mark.parametrize("A", [2, 16, 17, 300])
    def test_permutes_the_data_as_the_index_permutation_would(self, A):
        # pins every surrogate value: the output must not depend on whether
        # the data or its index range is permuted
        data = np.random.default_rng(A).integers(0, A, 1000)
        s = seq(data, A=A)
        for seed in (0, 1, 7, 2**32 - 1, 2**40):
            expected = data[np.random.default_rng(seed).permutation(len(data))]
            t = shuffle(s, seed)
            assert np.array_equal(t.data, expected)
            assert not t.data.flags.writeable
            assert np.array_equal(s.data, data)

    def test_takes_one_copy_of_the_data(self):
        # one byte per symbol: the new sequence's copy in its storage type
        s = seq(np.random.default_rng(5).integers(0, 4, 200_000), A=4)
        tracemalloc.start()
        try:
            shuffle(s, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * len(s)

    def test_different_seeds_differ(self):
        s = seq(np.arange(200) % 2)
        assert shuffle(s, 1) != shuffle(s, 2)
