import pickle
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lzwmetrics import (
    Alphabet,
    NumericSeries,
    SymbolSequence,
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

    def test_constructors_copy_the_callers_array(self):
        symbols = np.array([0, 1, 1, 0], dtype=np.uint8)
        samples = np.array([0.5, 1.5, 2.5])
        s = SymbolSequence(Alphabet(2), symbols)
        series = NumericSeries(samples)
        symbols[:] = 1
        samples[:] = 9.0
        assert s.data.tolist() == [0, 1, 1, 0]
        assert series.samples.tolist() == [0.5, 1.5, 2.5]
        assert symbols.flags.writeable and samples.flags.writeable

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


# What a sequence's pickle calls to rebuild it.
_REBUILD = SymbolSequence(Alphabet(2), [0]).__reduce__()[0]


class _RebuildPickle:
    """Pickles as a sequence whose rebuild arguments are ``args``."""

    def __init__(self, *args):
        self.args = args

    def __reduce__(self):
        return _REBUILD, self.args


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

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 9, 1001])
    @pytest.mark.parametrize("A", [2, 3, 4, 5, 16, 17, 256, 257, 300])
    @pytest.mark.parametrize("out_of_band", [False, True], ids=["in-band", "out-of-band"])
    def test_round_trip_in_and_out_of_band(self, out_of_band, A, n):
        # every symbol value, both ends included, at lengths off and on a
        # multiple of 2, 4 and 8
        s = seq(np.random.default_rng(n).permutation(np.arange(n) % A), A=A)
        if out_of_band:
            buffers = []
            stream = pickle.dumps(s, protocol=5, buffer_callback=buffers.append)
            assert [b.raw().nbytes for b in buffers] == [s.data.nbytes]
            back = pickle.loads(stream, buffers=[bytearray(b) for b in buffers])
        else:
            back = pickle.loads(pickle.dumps(s))
        assert back == s
        assert back.data.dtype == np.min_scalar_type(A - 1) and back.data.shape == (n,)
        assert not back.data.flags.writeable

    def test_old_packed_pickles_fail_loudly(self):
        # the format that packed small alphabets at 1, 2 or 4 bits a symbol
        packed = _RebuildPickle(Alphabet(4), np.array([0b00011011], dtype=np.uint8), 4)
        with pytest.raises(TypeError):
            pickle.loads(pickle.dumps(packed))

    @pytest.mark.parametrize(
        "alphabet, packed, n",
        [
            # the old format's bad fields, counts, shapes, dtypes and sizes:
            # none reaches a check that could let it through
            (Alphabet(3), np.array([0b00011100], dtype=np.uint8), 4),
            (Alphabet(5), np.array([0x15], dtype=np.uint8), 2),
            (Alphabet(4), np.array([0, 0], dtype=np.uint8), 4),
            (Alphabet(2), np.array([0], dtype=np.uint8), 9),
            (Alphabet(2), np.array([0], dtype=np.uint8), -1),
            (Alphabet(4), np.zeros((1, 1), dtype=np.uint8), 4),
            (Alphabet(4), np.array([0], dtype=np.uint16), 4),
            (Alphabet(17), np.array([0], dtype=np.uint8), 2),
            (Alphabet(2), np.array([], dtype=np.uint8), 0),
        ],
        ids=["field-3-at-A3", "field-5-at-A5", "short", "long", "negative", "2-d",
             "uint16", "A17", "empty"],
    )
    def test_tampered_packed_pickles_are_rejected(self, alphabet, packed, n):
        message = "_unpickle_sequence() takes 2 positional arguments but 3 were given"
        with pytest.raises(TypeError, match=re.escape(message)):
            pickle.loads(pickle.dumps(_RebuildPickle(alphabet, packed, n)))

    def test_unpickling_validates_the_symbols(self):
        with pytest.raises(ValueError, match="symbols must lie in 0..1"):
            pickle.loads(pickle.dumps(_TamperedPickle()))

    @pytest.mark.parametrize(
        "alphabet, data, message",
        [
            (Alphabet(2), np.array([0, 2], dtype=np.uint8),
             "symbols must lie in 0..1 for an alphabet of size 2"),
            (Alphabet(300), np.array([0, 300], dtype=np.uint16),
             "symbols must lie in 0..299 for an alphabet of size 300"),
            (Alphabet(2), np.zeros((2, 2), dtype=np.uint8), "symbol data must be one-dimensional"),
            (Alphabet(2), np.array([], dtype=np.uint8),
             "symbol sequence must contain at least one symbol"),
            (Alphabet(2), np.array([0, 1], dtype=np.int64),
             "pickled symbols must be stored as uint8 for an alphabet of size 2, not int64"),
            (Alphabet(300), np.array([0, 1], dtype=np.uint8),
             "pickled symbols must be stored as uint16 for an alphabet of size 300, not uint8"),
            (Alphabet(2), [0, 1], "pickled symbol sequence needs an Alphabet and an array"),
        ],
        ids=["range", "range-uint16", "2-d", "empty", "int64", "uint8-for-300", "list"],
    )
    def test_tampered_pickles_are_rejected(self, alphabet, data, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            pickle.loads(pickle.dumps(_RebuildPickle(alphabet, data)))

    def test_unpickled_alphabets_are_checked(self):
        bad = Alphabet(2)
        object.__setattr__(bad, "size", 1)
        message = "alphabet size must be an integer >= 2, got 1"
        with pytest.raises(ValueError, match=re.escape(message)):
            pickle.loads(pickle.dumps(bad))
        with pytest.raises(ValueError, match=re.escape(message)):
            pickle.loads(pickle.dumps(_RebuildPickle(bad, np.array([0], dtype=np.uint8))))
        assert pickle.loads(pickle.dumps(Alphabet(7))) == Alphabet(7)

    def test_unpickling_keeps_the_decoded_array(self):
        data = np.array([0, 1, 1], dtype=np.uint8)
        s = _REBUILD(Alphabet(2), data)
        assert s.data is data
        assert not data.flags.writeable


def median(samples):
    """The median digitizer: quantile digitization at two levels."""
    return digitize_quantiles(NumericSeries(samples), 2)


class TestBinarizeMedian:
    def test_distinct_samples(self):
        out = median([1.0, 2.0, 3.0, 4.0])
        assert out == seq([0, 0, 1, 1])

    def test_single_sample_maps_to_zero(self):
        assert median([5.0]) == seq([0])

    def test_ties_map_to_lower_symbol(self):
        out = median([7.0, 7.0, 7.0, 7.0])
        assert out == seq([0, 0, 0, 0])

    def test_even_distinct_samples_split_exactly(self):
        # n distinct samples, n even: exactly n/2 land strictly above the
        # midpoint median, so the empirical entropy is exactly 1 bit.
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = 2 * int(rng.integers(1, 200))
            samples = rng.permutation(rng.random(n))
            out = median(samples)
            assert int(out.data.sum()) == n // 2

    def test_samples_whose_sum_overflows(self):
        out = median([1e308, 1.5e308, 1.2e308, 1.7e308])
        assert out == seq([0, 1, 0, 1])
        out = median([-1e308, -1.5e308, -1.2e308, -1.7e308])
        assert out == seq([1, 0, 1, 0])

    def test_samples_whose_difference_overflows(self):
        assert median([1.7e308, -1.7e308]) == seq([1, 0])
        out = median([-1e308, 1.5e308, -1.2e308, 1.7e308, 0.0])
        assert out == seq([0, 1, 0, 1, 0])

    def test_odd_distinct_samples_split_off_by_one(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = 2 * int(rng.integers(1, 200)) + 1
            out = median(rng.random(n))
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
                out = digitize_quantiles(NumericSeries(samples), 2)
                # 1 exactly above the lower middle order statistic
                assert out == seq(samples > np.sort(samples)[(size - 1) // 2])
                # distinct samples: all above the middle one(s) map to 1
                assert int(out.data.sum()) == size // 2

    def test_adjacent_floats_split_at_the_exact_cut(self):
        # The linear cut between 1 + 2**-52 and 1 + 2**-51 rounds onto the
        # upper sample, which lies strictly above the exact cut.
        a = np.nextafter(1.0, 2)
        b = np.nextafter(a, 2)
        assert digitize_quantiles(NumericSeries([a, b]), 2) == seq([0, 1])

    def test_symbols_count_the_exact_linear_cuts_below(self):
        # Runs of consecutive floats, where the interpolated cuts round
        # onto samples: each sample's symbol counts the cuts, taken in
        # exact arithmetic from numpy's index and weight, strictly below it.
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            levels = int(rng.integers(2, 10))
            start = rng.choice([1.0, -3.0, 1e300, 5e-324])
            samples = [start]
            for step in rng.random(n - 1) < 0.8:
                samples.append(np.nextafter(samples[-1], np.inf) if step else samples[-1])
            samples = rng.permutation(samples)
            ordered = [Fraction(x) for x in np.sort(samples)]
            cuts = []
            for h in (n - 1) * (np.arange(1, levels) / levels):
                lo = int(np.floor(h))
                hi = min(lo + 1, n - 1)
                cuts.append(ordered[lo] + Fraction(h - lo) * (ordered[hi] - ordered[lo]))
            expected = [sum(c < Fraction(x) for c in cuts) for x in samples]
            out = digitize_quantiles(NumericSeries(samples), levels)
            assert out.data.tolist() == expected
            if levels == 2:
                assert out == seq(samples > np.sort(samples)[(n - 1) // 2])

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
