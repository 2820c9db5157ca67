import copy
import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest

from lzwmetrics import (
    Alphabet,
    DegenerateProcessError,
    ProcessSpec,
    SymbolSequence,
    analytic_entropy_rate,
    empirical_hq,
    encode,
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
            ProcessSpec.markov(np.full((3, 2), 0.5))

    def test_markov_alphabet_is_the_table_column_count(self):
        spec = ProcessSpec.markov(np.full((3, 3), 1 / 3))
        assert (spec.alphabet_size, spec.order) == (3, 1)
        spec = ProcessSpec.markov(np.full((9, 3), 1 / 3))
        assert (spec.alphabet_size, spec.order) == (3, 2)

    @pytest.mark.parametrize("columns", [0, 1])
    def test_markov_table_needs_two_columns(self, columns):
        with pytest.raises(ValueError, match=f"alphabet size must be at least 2, got {columns}"):
            ProcessSpec.markov(np.ones((1, columns)))

    @pytest.mark.parametrize(
        "fields, stray",
        [
            (dict(kind="bernoulli", p=0.5, pattern=(1, 1, 1)), "pattern"),
            (dict(kind="markov", transition_table=np.full((2, 2), 0.5), p=0.5), "p"),
            (dict(kind="periodic", pattern=(0, 1), p=0.9, transition_table=np.eye(2)),
             "p, transition_table"),
        ],
        ids=["bernoulli", "markov", "periodic"],
    )
    def test_fields_of_another_kind_are_rejected(self, fields, stray):
        with pytest.raises(ValueError, match=f"^{fields['kind']} processes take no {stray}$"):
            ProcessSpec(**fields)

    def test_the_order_is_read_from_the_table_alone(self):
        with pytest.raises(TypeError, match="order"):
            ProcessSpec(kind="markov", order=2, transition_table=np.full((2, 2), 0.5))

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(kind="bernoulli", p=0.5, alphabet_size=3), "bernoulli alphabet size is 2, not 3"),
            (
                dict(kind="markov", transition_table=np.full((3, 3), 1 / 3), alphabet_size=2),
                "markov alphabet size is 3, not 2",
            ),
        ],
        ids=["bernoulli", "markov"],
    )
    def test_an_alphabet_size_that_disagrees_is_rejected(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ProcessSpec(**fields)

    def test_a_matching_alphabet_size_is_accepted(self):
        assert ProcessSpec(kind="bernoulli", p=0.5, alphabet_size=2).alphabet_size == 2
        table = np.full((9, 3), 1 / 3)
        spec = ProcessSpec(kind="markov", transition_table=table, alphabet_size=3)
        assert (spec.alphabet_size, spec.order) == (3, 2)

    @pytest.mark.parametrize(
        "clone",
        [lambda s: pickle.loads(pickle.dumps(s)), lambda s: dataclasses.replace(s)],
        ids=["pickle", "replace"],
    )
    def test_clones_keep_the_derived_alphabet_and_order(self, clone):
        spec = ProcessSpec.markov(np.random.default_rng(3).dirichlet(np.ones(3), 9))
        twin = clone(spec)
        assert (twin.alphabet_size, twin.order) == (spec.alphabet_size, spec.order) == (3, 2)
        np.testing.assert_array_equal(twin._stationary, spec._stationary)
        assert generate(twin, 500, 1) == generate(spec, 500, 1)

    def test_replace_rederives_from_the_new_parameter(self):
        spec = dataclasses.replace(ProcessSpec.periodic([0, 1]), alphabet_size=None, pattern=(4,))
        assert (spec.alphabet_size, spec.pattern) == (5, (4,))
        with pytest.raises(ValueError, match="markov alphabet size is 3, not 2"):
            dataclasses.replace(symmetric_binary_markov(0.1), transition_table=np.eye(3))

    def test_markov_state_space_cap(self):
        with pytest.raises(ValueError, match=r"state space 2\*\*17 exceeds the 65536 cap"):
            ProcessSpec.markov(np.full((2**17, 2), 0.5))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: symmetric_binary_markov(0.0),
            lambda: ProcessSpec.markov(np.eye(3)),
            lambda: ProcessSpec.markov([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]),
        ],
        ids=["eps-0", "identity", "two-classes"],
    )
    def test_markov_without_a_unique_law_fails_at_construction(self, build):
        with pytest.raises(DegenerateProcessError, match="not unique"):
            build()

    def test_closed_class_is_found_once_per_spec(self, monkeypatch):
        # One solve, at construction, and one closed-class search inside it;
        # sampling and the analytic rate read the law the spec keeps.
        from lzwmetrics import generators

        calls = []
        real_search, real_solve = generators._closed_class, generators.stationary_distribution

        def search(*args):
            calls.append("search")
            return real_search(*args)

        def solve(*args):
            calls.append("solve")
            return real_solve(*args)

        monkeypatch.setattr(generators, "_closed_class", search)
        monkeypatch.setattr(generators, "stationary_distribution", solve)
        spec = ProcessSpec.markov(np.full((16, 2), 0.5))
        generate(spec, 100, 0)
        generate(spec, 100, 1)
        analytic_entropy_rate(spec)
        assert calls == ["solve", "search"]

    @pytest.mark.parametrize(
        "clone", [lambda s: pickle.loads(pickle.dumps(s)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_cloned_markov_spec_stays_read_only(self, clone, monkeypatch):
        from lzwmetrics import generators

        spec = ProcessSpec.markov([[0.9, 0.1], [0.2, 0.8]])
        monkeypatch.setattr(generators, "stationary_distribution", None)  # no second solve
        twin = clone(spec)
        np.testing.assert_array_equal(twin.transition_table, spec.transition_table)
        np.testing.assert_array_equal(twin._stationary, spec._stationary)
        assert not twin.transition_table.flags.writeable
        assert not twin._stationary.flags.writeable
        assert generate(twin, 1000, 3) == generate(spec, 1000, 3)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ProcessSpec.bernoulli(0.3),
            lambda: ProcessSpec.markov([[0.9, 0.1], [0.2, 0.8]]),
            lambda: ProcessSpec.periodic([0, 1, 1]),
            lambda: ProcessSpec.periodic([1]),
        ],
        ids=["bernoulli", "markov", "periodic", "constant"],
    )
    def test_specs_compare_and_hash_by_identity(self, make):
        spec, twin = make(), make()
        back = pickle.loads(pickle.dumps(spec))
        for a, b in [(spec, twin), (spec, back), (back, twin)]:
            assert a == a and not a != a
            assert a != b and not a == b
            assert hash(a) == hash(a)
        assert len({spec, twin, back, spec, back}) == 3
        assert generate(back, 50, 4) == generate(spec, 50, 4)

    def test_generate_checks_a_pattern_changed_after_construction(self):
        # unpickling restores a spec's fields unchecked; generate still
        # range-checks a periodic spec's symbols, also those past the storage
        # type (uint8 here) or the int64 range
        spec = ProcessSpec.periodic([0, 1])
        for pattern in [(0, 5), (0, 300), (0, -1), (0, 2**64)]:
            twin = copy.copy(spec)
            twin.__setstate__(dict(spec.__dict__, pattern=pattern))
            with pytest.raises(ValueError, match="symbols must lie in 0..1"):
                generate(pickle.loads(pickle.dumps(twin)), 6, 0)

    def test_markov_with_a_transient_state_is_valid(self):
        spec = ProcessSpec.markov([[0.5, 0.5], [0.0, 1.0]])
        assert generate(spec, 100, 0).data.tolist() == [1] * 100

    def test_periodic_pattern_symbols_in_range(self):
        with pytest.raises(ValueError):
            ProcessSpec.periodic([0, 3], alphabet_size=2)
        with pytest.raises(ValueError):
            ProcessSpec.periodic([5], alphabet_size=2)
        # no symbol sequence holds a symbol past the int64 range
        with pytest.raises(ValueError, match=f"must lie in 0..{2**63 - 1}$"):
            ProcessSpec.periodic([2**63])
        with pytest.raises(ValueError):
            ProcessSpec.periodic([])


class TestDeterministicKinds:
    def test_constant(self):
        assert generate(ProcessSpec.periodic([0]), 5, 99) == seq([0, 0, 0, 0, 0])

    def test_constant_is_a_one_symbol_period(self):
        # The alphabet grows to hold the symbol, as for any pattern.
        spec = ProcessSpec.periodic([2])
        assert (spec.kind, spec.pattern, spec.alphabet_size) == ("periodic", (2,), 3)
        assert generate(spec, 4, 0) == seq([2, 2, 2, 2], A=3)
        assert ProcessSpec.periodic([9]).alphabet_size == 10
        with pytest.raises(ValueError, match=r"pattern symbols must lie in 0\.\.1"):
            ProcessSpec.periodic([-1])

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
        pi = stationary_distribution(table)
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
        spec = ProcessSpec.markov(table)
        assert spec.order == 2
        s = generate(spec, 2 * 10**5, 8)
        pairs = s.data[:-1] * 2 + s.data[1:]
        histogram = np.bincount(pairs, minlength=4) / len(pairs)
        pi = stationary_distribution(table)
        tv = 0.5 * np.abs(histogram - pi).sum()
        assert tv <= 0.01

    @pytest.mark.parametrize(
        "spec",
        [
            symmetric_binary_markov(0.1),
            ProcessSpec.markov(np.random.default_rng(3).dirichlet(np.ones(3), 9)),
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
        [ProcessSpec.bernoulli(0.3), ProcessSpec.periodic([0, 1, 1]), ProcessSpec.periodic([1])],
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

    @pytest.mark.parametrize("pattern", [[0, 1, 1], [0]], ids=["periodic", "constant"])
    def test_periodic_output_is_kept_without_a_copy(self, pattern):
        # the tiled pattern is the sequence's array: no copy, no second byte
        n = 10**6
        tracemalloc.start()
        try:
            s = generate(ProcessSpec.periodic(pattern), n, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.data[: 2 * len(pattern)].tolist() == pattern * 2 and len(s) == n
        assert not s.data.flags.writeable
        assert peak < 1.5 * n

    def test_bernoulli_draws_match_one_draw_of_all_uniforms(self):
        # chunked draws from one PCG64 stream: the same doubles, the same bits
        n = 3 * _DRAW_CHUNK + 5
        expected = np.random.default_rng(11).random(n) < 0.3
        assert np.array_equal(generate(ProcessSpec.bernoulli(0.3), n, 11).data, expected)

    def test_short_runs_and_edges(self):
        assert len(generate(symmetric_binary_markov(0.1), 1, 4)) == 1
        with pytest.raises(ValueError):
            generate(ProcessSpec.periodic([0]), 0, 1)


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


def _rate_tables():
    rng = np.random.default_rng(8)
    return [
        (np.tile(rng.dirichlet(np.ones(4)), (4, 1)), 1),  # i.i.d.: equal rows
        (rng.dirichlet(np.full(3, 0.5), 9), 2),
        # A = 20 and 40 run the hashed parse kernel and the per-symbol sampler.
        (rng.dirichlet(np.full(20, 0.3), 20), 1),
        (rng.dirichlet(np.full(40, 0.3), 40), 1),
    ]


class TestRatesBeyondBinarySources:
    @pytest.mark.parametrize(
        "table, m", _rate_tables(), ids=["iid-A4", "order2-A3", "order1-A20", "order1-A40"]
    )
    def test_rho0_falls_toward_the_rate_and_hq_meets_it(self, table, m):
        # Order, not tuned envelopes: rho0 stays above h and its excess
        # falls with n, one seed per n, and the plug-in hq at the chain's
        # own order, where A**(m+1) is far below n, lies on h.
        spec = ProcessSpec.markov(table)
        h = analytic_entropy_rate(spec)
        excess = []
        for seed, n in enumerate((10**4, 10**5, 10**6)):
            s = generate(spec, n, seed)
            excess.append(encode(s).description_length_bits / n - h)
        assert 0 < excess[2] < excess[1] < excess[0]
        assert abs(empirical_hq(s, m) - h) < 0.01
