import tracemalloc

import numpy as np
import pytest

from lzwmetrics import (
    Alphabet,
    DegenerateProcessError,
    ProcessSpec,
    SymbolSequence,
    analytic_entropy_rate,
    generate,
    h0_bernoulli,
    stationary_distribution,
    symmetric_binary_markov,
)
from lzwmetrics.generators import _DRAW_CHUNK


def seq(symbols, A=2):
    return SymbolSequence(Alphabet(A), np.array(symbols, dtype=np.int64))


class TestProcessSpecValidation:
    def test_bernoulli_probability_range(self):
        with pytest.raises(ValueError):
            ProcessSpec.bernoulli(1.5)

    def test_markov_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            ProcessSpec.markov([[0.7, 0.2], [0.5, 0.5]])

    def test_markov_rows_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            ProcessSpec.markov([[1.2, -0.2], [0.5, 0.5]])

    def test_markov_row_with_nan_is_rejected(self):
        with pytest.raises(ValueError, match="transition rows must each sum to 1"):
            ProcessSpec.markov([[np.nan, 1.0], [0.5, 0.5]])

    def test_markov_shape_must_match_alphabet(self):
        with pytest.raises(ValueError):
            ProcessSpec.markov(np.full((3, 2), 0.5), alphabet_size=2)

    def test_markov_shape_must_match_the_order(self):
        with pytest.raises(ValueError, match=r"must have shape \(4, 2\), got \(2, 2\)"):
            ProcessSpec(
                kind="markov", alphabet_size=2, order=2, transition_table=np.full((2, 2), 0.5)
            )

    def test_markov_state_space_cap(self):
        with pytest.raises(ValueError):
            ProcessSpec(
                kind="markov",
                alphabet_size=2,
                order=17,
                transition_table=np.full((2**17, 2), 0.5),
            )

    @pytest.mark.parametrize(
        "build",
        [
            lambda: symmetric_binary_markov(0.0),
            lambda: ProcessSpec.markov(np.eye(3), alphabet_size=3),
            lambda: ProcessSpec.markov(
                [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]], alphabet_size=3
            ),
        ],
        ids=["eps-0", "identity", "two-classes"],
    )
    def test_markov_without_a_unique_law_fails_at_construction(self, build):
        with pytest.raises(DegenerateProcessError, match="not unique"):
            build()

    def test_closed_class_is_found_once_per_spec(self, monkeypatch):
        # One solve, at construction, and one closed-class search inside it;
        # sampling and the analytic rate read the law the spec keeps.
        from lzwmetrics import entropy, generators

        calls = []
        real_search, real_solve = entropy._closed_class, entropy.stationary_distribution

        def search(*args):
            calls.append("search")
            return real_search(*args)

        def solve(*args):
            calls.append("solve")
            return real_solve(*args)

        monkeypatch.setattr(entropy, "_closed_class", search)
        monkeypatch.setattr(entropy, "stationary_distribution", solve)
        monkeypatch.setattr(generators, "stationary_distribution", solve)
        spec = ProcessSpec.markov(np.full((16, 2), 0.5))
        generate(spec, 100, 0)
        generate(spec, 100, 1)
        analytic_entropy_rate(spec)
        assert calls == ["solve", "search"]

    def test_markov_with_a_transient_state_is_valid(self):
        spec = ProcessSpec.markov([[0.5, 0.5], [0.0, 1.0]])
        assert generate(spec, 100, 0).data.tolist() == [1] * 100

    def test_periodic_pattern_symbols_in_range(self):
        with pytest.raises(ValueError):
            ProcessSpec.periodic([0, 3], alphabet_size=2)
        with pytest.raises(ValueError):
            ProcessSpec.periodic([])

    def test_constant_symbol_in_range(self):
        with pytest.raises(ValueError):
            ProcessSpec.constant(5, alphabet_size=2)


class TestDeterministicKinds:
    def test_constant(self):
        assert generate(ProcessSpec.constant(0), 5, 99) == seq([0, 0, 0, 0, 0])

    def test_periodic_tiling_truncates(self):
        assert generate(ProcessSpec.periodic([0, 1]), 5, 99) == seq([0, 1, 0, 1, 0])

    def test_periodic_consumes_no_randomness(self):
        a = generate(ProcessSpec.periodic([0, 1, 1]), 31, 1)
        b = generate(ProcessSpec.periodic([0, 1, 1]), 31, 2)
        assert a == b


class TestRandomKinds:
    def test_determinism(self):
        for spec in (ProcessSpec.bernoulli(0.3), symmetric_binary_markov(0.2)):
            assert generate(spec, 5000, 7) == generate(spec, 5000, 7)
            assert generate(spec, 5000, 7) != generate(spec, 5000, 8)

    def test_bernoulli_ones_fraction(self):
        s = generate(ProcessSpec.bernoulli(0.5), 10**5, 2)
        assert abs(s.data.mean() - 0.5) < 0.005

    def test_bernoulli_biased_fraction(self):
        s = generate(ProcessSpec.bernoulli(0.2), 10**5, 3)
        assert abs(s.data.mean() - 0.2) < 0.005

    def test_markov_matches_stationary_histogram(self):
        table = np.array([[0.9, 0.1], [0.2, 0.8]])
        spec = ProcessSpec.markov(table)
        s = generate(spec, 10**6, 5)
        pi = stationary_distribution(table, 2, 1)
        histogram = np.bincount(s.data, minlength=2) / len(s)
        tv = 0.5 * np.abs(histogram - pi).sum()
        assert tv <= 0.01

    def test_order_two_chain_state_histogram(self):
        # next symbol repeats the one from two steps back with prob 0.9
        table = np.zeros((4, 2))
        for state in range(4):
            older = state >> 1
            table[state, older] = 0.9
            table[state, 1 - older] = 0.1
        spec = ProcessSpec.markov(table, alphabet_size=2)
        assert spec.order == 2
        s = generate(spec, 2 * 10**5, 8)
        pairs = s.data[:-1] * 2 + s.data[1:]
        histogram = np.bincount(pairs, minlength=4) / len(pairs)
        pi = stationary_distribution(table, 2, 2)
        tv = 0.5 * np.abs(histogram - pi).sum()
        assert tv <= 0.01

    @pytest.mark.parametrize(
        "spec",
        [
            symmetric_binary_markov(0.1),
            ProcessSpec.markov(np.random.default_rng(3).dirichlet(np.ones(3), 9), 3),
        ],
        ids=["order-1 binary", "order-2 ternary"],
    )
    def test_markov_memory_is_the_output_and_one_chunk(self, spec):
        # Draws come in fixed chunks and symbols go straight into the
        # one-byte output, so the peak is the output, its validated copy and
        # one chunk, not a Python float and int per symbol.
        n = 10**6
        tracemalloc.start()
        try:
            generate(spec, n, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * n

    @pytest.mark.parametrize(
        "spec",
        [ProcessSpec.bernoulli(0.3), ProcessSpec.periodic([0, 1, 1]), ProcessSpec.constant(1)],
        ids=["bernoulli", "periodic", "constant"],
    )
    def test_other_kinds_build_one_byte_per_symbol(self, spec):
        n = 10**6
        tracemalloc.start()
        try:
            s = generate(spec, n, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.data.dtype == np.uint8
        assert peak < 4 * n

    def test_bernoulli_draws_match_one_draw_of_all_uniforms(self):
        # chunked draws from one PCG64 stream: the same doubles, the same bits
        n = 3 * _DRAW_CHUNK + 5
        expected = np.random.default_rng(11).random(n) < 0.3
        assert np.array_equal(generate(ProcessSpec.bernoulli(0.3), n, 11).data, expected)

    def test_short_runs_and_edges(self):
        assert len(generate(symmetric_binary_markov(0.1), 1, 4)) == 1
        with pytest.raises(ValueError):
            generate(ProcessSpec.constant(0), 0, 1)


class TestSpecEntropyRate:
    def test_examples(self):
        assert analytic_entropy_rate(ProcessSpec.bernoulli(0.5)) == 1.0
        assert analytic_entropy_rate(ProcessSpec.periodic([0, 1, 1])) == 0.0
        assert analytic_entropy_rate(symmetric_binary_markov(0.25)) == pytest.approx(
            0.81128, abs=5e-6
        )

    def test_matches_flip_entropy_for_symmetric_chains(self):
        for eps in (0.01, 0.1, 0.4):
            assert analytic_entropy_rate(symmetric_binary_markov(eps)) == pytest.approx(
                h0_bernoulli(eps), abs=1e-12
            )
