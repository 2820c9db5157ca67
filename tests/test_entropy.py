import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from lzwmetrics import (
    Alphabet,
    DegenerateProcessError,
    ProcessSpec,
    SymbolSequence,
    analytic_entropy_rate,
    empirical_block_entropy,
    empirical_h0,
    empirical_hq,
    entropy_profile,
    generate,
    h0_bernoulli,
    shuffle,
    stationary_distribution,
    symmetric_binary_markov,
)
from lzwmetrics import generators

from oracles import gram_entropy_bits, stationary_by_eigendecomposition


def seq(symbols, A=2):
    return SymbolSequence(Alphabet(A), np.array(symbols, dtype=np.int64))


def de_bruijn_bits(m):
    """A binary de Bruijn cycle of order m: every m-bit word once, cyclically.

    Prefer-one construction: from m zeros, append 1 unless the last m bits
    would repeat a word already seen, else 0.  The first 2**m bits, read
    cyclically, hold every word.
    """
    bits = [0] * m
    seen = {tuple(bits)}
    while len(bits) < 2**m + m - 1:
        for bit in (1, 0):
            word = tuple(bits[len(bits) - m + 1 :] + [bit])
            if word not in seen:
                seen.add(word)
                bits.append(bit)
                break
    return np.array(bits[: 2**m])


class TestH0Bernoulli:
    def test_symmetric_maximum(self):
        assert h0_bernoulli(0.5) == 1.0

    def test_deterministic_endpoints(self):
        assert h0_bernoulli(0.0) == 0.0
        assert h0_bernoulli(1.0) == 0.0

    def test_point_one(self):
        assert h0_bernoulli(0.1) == pytest.approx(0.46900, abs=5e-6)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            h0_bernoulli(-0.01)
        with pytest.raises(ValueError):
            h0_bernoulli(1.01)


class TestEmpiricalH0:
    def test_equal_counts(self):
        assert empirical_h0(seq([0, 1, 0, 1])) == 1.0

    def test_single_symbol(self):
        assert empirical_h0(seq([0, 0, 0, 0])) == 0.0

    def test_certain_outcomes_are_positive_zero(self):
        # -0.0 == 0.0, so the sign is checked on its own
        constant = seq([1] * 5)
        values = [
            empirical_h0(constant),
            empirical_block_entropy(constant, 3),
            *entropy_profile(constant, 2).hq,
            analytic_entropy_rate(ProcessSpec.markov(np.array([[0.0, 1.0], [1.0, 0.0]]))),
        ]
        assert [math.copysign(1.0, v) for v in values] == [1.0] * len(values)

    def test_quarter_split(self):
        assert empirical_h0(seq([0, 0, 0, 1])) == pytest.approx(0.81128, abs=5e-6)

    def test_exactly_preserved_by_shuffle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            A = int(rng.integers(2, 6))
            s = seq(rng.integers(0, A, int(rng.integers(1, 300))), A=A)
            assert empirical_h0(shuffle(s, 5)) == empirical_h0(s)


class TestBlockEntropy:
    def test_alternating_bigrams_match_oracle(self):
        s = seq([0, 1, 0, 1, 0, 1])
        # bigrams: "01" x3, "10" x2; pinned from the brute-force counter
        expected = gram_entropy_bits([0, 1, 0, 1, 0, 1], 2)
        assert expected == pytest.approx(0.9709505944546686, abs=1e-15)
        assert empirical_block_entropy(s, 2) == pytest.approx(expected, abs=1e-12)

    def test_constant_bigrams(self):
        assert empirical_block_entropy(seq([0, 0, 0, 0]), 2) == 0.0

    def test_order_one_equals_h0(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            A = int(rng.integers(2, 7))
            s = seq(rng.integers(0, A, int(rng.integers(1, 200))), A=A)
            assert abs(empirical_block_entropy(s, 1) - empirical_h0(s)) <= 1e-12

    def test_exhaustive_small_binary_against_oracle(self):
        for n in range(1, 11):
            for bits in itertools.product((0, 1), repeat=n):
                s = seq(bits)
                for q in range(1, min(4, n) + 1):
                    got = empirical_block_entropy(s, q)
                    assert abs(got - gram_entropy_bits(bits, q)) <= 1e-12

    def test_wide_alphabet_fallback_path(self):
        # A**q too large for int64 codes exercises the numbering by pair rank
        rng = np.random.default_rng(33)
        symbols = rng.integers(0, 5000, 64)
        s = seq(symbols, A=5000)
        got = empirical_block_entropy(s, 16)
        assert got == pytest.approx(gram_entropy_bits(symbols.tolist(), 16), abs=1e-12)

    def test_rejects_bad_orders(self):
        s = seq([0, 1, 0])
        with pytest.raises(ValueError):
            empirical_block_entropy(s, 0)
        with pytest.raises(ValueError):
            empirical_block_entropy(s, 4)

    def test_range_invariant(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            A = int(rng.integers(2, 7))
            s = seq(rng.integers(0, A, 100), A=A)
            for q in (1, 2, 3):
                assert 0.0 <= empirical_block_entropy(s, q) <= math.log2(A) * q + 1e-12


class TestConditionalEntropy:
    def test_periodic_is_deterministic(self):
        s = seq([0, 1] * 100)
        assert empirical_hq(s, 1) <= 1e-9

    def test_iid_bits_near_one(self):
        s = generate(ProcessSpec.bernoulli(0.5), 10**5, 3)
        assert empirical_hq(s, 1) == pytest.approx(1.0, abs=0.01)

    def test_constant_is_zero(self):
        s = seq([0] * 50)
        for q in (1, 2, 3):
            assert empirical_hq(s, q) == 0.0

    def test_never_negative(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            s = seq(rng.integers(0, 2, int(rng.integers(3, 60))))
            assert empirical_hq(s, 1) >= 0.0
            assert empirical_hq(s, 2) >= 0.0

    def test_rejects_order_beyond_n_minus_one(self):
        with pytest.raises(ValueError):
            empirical_hq(seq([0, 1]), 2)


class TestEntropyProfile:
    def test_constant(self):
        profile = entropy_profile(seq([0] * 40), 3)
        assert profile.h0 == 0.0
        assert profile.hq == (0.0, 0.0, 0.0)
        assert profile.q_max == 3

    def test_periodic(self):
        # hq[0] clamps to zero exactly; hq[1] keeps a boundary term from the
        # off-by-one bigram imbalance, O(1/n^2)
        profile = entropy_profile(seq([0, 1] * 1000), 2)
        assert profile.h0 == 1.0
        assert profile.hq[0] == 0.0
        assert profile.hq[1] <= 1e-6

    def test_iid_bits(self):
        s = generate(ProcessSpec.bernoulli(0.5), 10**5, 4)
        profile = entropy_profile(s, 3)
        assert profile.h0 == pytest.approx(1.0, abs=0.02)
        for v in profile.hq:
            assert v == pytest.approx(1.0, abs=0.02)

    def test_matches_individual_estimators(self):
        rng = np.random.default_rng(36)
        s = seq(rng.integers(0, 3, 500), A=3)
        profile = entropy_profile(s, 4)
        assert profile.h0 == empirical_h0(s)
        for i, value in enumerate(profile.hq, start=1):
            assert value == empirical_hq(s, i)

    @pytest.mark.parametrize("A", [16, 300])
    def test_wide_windows_take_no_copy_per_window(self, A):
        # Past the int64 code range the codes are renumbered, so memory stays
        # a few code arrays rather than a copy of every q-symbol window.
        s = seq(np.random.default_rng(37).integers(0, A, 20_000), A=A)
        tracemalloc.start()
        try:
            entropy_profile(s, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * len(s)

    @pytest.mark.parametrize(
        "A", [2**33, 2**62, 2**63, 2**64], ids=lambda A: f"2^{A.bit_length() - 1}"
    )
    def test_alphabets_past_32_bits_match_the_oracle(self, A):
        # uint64 symbols; from A = 2**62 even three ranks times A leave
        # int64, so the windows are numbered by ranking pairs
        top = min(A, 2**63) - 1
        rng = np.random.default_rng(38)
        symbols = np.array([0, top // 2, top], dtype=np.uint64)[rng.integers(0, 3, 400)]
        profile = entropy_profile(SymbolSequence(Alphabet(A), symbols), 6)
        blocks = [gram_entropy_bits(symbols.tolist(), q) for q in range(1, 8)]
        assert profile.h0 == pytest.approx(blocks[0], abs=1e-12)
        for got, lo, hi in zip(profile.hq, blocks, blocks[1:]):
            assert got == pytest.approx(max(0.0, hi - lo), abs=1e-12)

    def test_rejects_excessive_q_max(self):
        with pytest.raises(ValueError):
            entropy_profile(seq([0, 1, 0, 1]), 4)
        with pytest.raises(ValueError):
            entropy_profile(seq([0, 1] * 100), 17)
        with pytest.raises(ValueError):
            entropy_profile(seq([0, 1] * 100), 0)


class TestStationaryDistribution:
    def test_matches_eigendecomposition_on_random_chains(self):
        rng = np.random.default_rng(37)
        for A, order in ((2, 1), (3, 1), (4, 1), (2, 2), (2, 3), (3, 2)):
            states = A**order
            table = rng.dirichlet(np.ones(A), size=states)
            got = stationary_distribution(table)
            want = stationary_by_eigendecomposition(table, A, order)
            assert np.abs(got - want).max() <= 1e-9

    def test_periodic_flip_chain_is_uniform(self):
        # deterministic alternation has a unique stationary law
        pi = stationary_distribution([[0.0, 1.0], [1.0, 0.0]])
        assert pi == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_reducible_chain_is_degenerate(self):
        with pytest.raises(DegenerateProcessError):
            stationary_distribution([[1.0, 0.0], [0.0, 1.0]])

    def test_two_closed_classes_are_degenerate(self):
        table = [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]
        with pytest.raises(DegenerateProcessError, match="not unique"):
            stationary_distribution(table)

    def test_transient_state_gets_exactly_zero(self):
        # state 0 leaves for good; on {1, 2}, pi_1 * 0.6 = pi_2 * 0.7
        table = [[0.2, 0.3, 0.5], [0.0, 0.4, 0.6], [0.0, 0.7, 0.3]]
        pi = stationary_distribution(table)
        assert pi[0] == 0.0
        assert pi == pytest.approx([0.0, 7 / 13, 6 / 13], abs=1e-12)

    def test_slow_escape_from_a_transient_state(self):
        # the escape takes 1e9 steps on average; the closed class is found
        # from the support graph, not by waiting for the mass to leave
        table = [[1 - 1e-9, 1e-9, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]
        pi = stationary_distribution(table)
        assert pi[0] == 0.0
        assert pi == pytest.approx([0.0, 0.5, 0.5], abs=1e-12)

    def test_de_bruijn_cycle_is_uniform(self):
        # A deterministic cycle through all 4096 binary order-12 contexts:
        # irreducible and periodic, with the uniform law.
        m = 12
        cycle = de_bruijn_bits(m)
        table = np.zeros((2**m, 2))
        for i in range(2**m):
            state = int("".join(map(str, np.roll(cycle, -i)[:m])), 2)
            table[state, cycle[(i + m) % 2**m]] = 1.0
        start = time.process_time()
        pi = stationary_distribution(table)
        assert time.process_time() - start < 1.0
        assert (pi == 2.0**-m).all()

    @pytest.mark.parametrize(
        "table, message",
        [
            (np.full((3, 2), 0.5), "row count 3 is not a power of the alphabet size 2"),
            ([[1.2, -0.2], [0.5, 0.5]], "must be non-negative"),
            ([[0.7, 0.2], [0.5, 0.5]], "rows must each sum to 1"),
            ([[np.nan, 1.0], [0.5, 0.5]], "rows must each sum to 1"),
            ([[np.inf, 1.0], [0.5, 0.5]], "rows must each sum to 1"),
        ],
        ids=["shape", "negative", "row-sum", "nan", "inf"],
    )
    def test_non_stochastic_tables_are_rejected(self, table, message):
        with pytest.raises(ValueError, match=message) as info:
            stationary_distribution(table)
        assert not isinstance(info.value, DegenerateProcessError)

    def test_non_convergence_names_the_state_count_and_the_cap(self, monkeypatch):
        monkeypatch.setattr(generators, "_POWER_MAX_ITERS", 3)
        with pytest.raises(DegenerateProcessError, match="on 2 states in 3 steps"):
            stationary_distribution([[0.9, 0.1], [0.2, 0.8]])

    def test_slowly_mixing_chain_is_not_returned_early(self, monkeypatch):
        # From the uniform start the first step moves pi by only 1e-13, yet
        # the law is [0.75, 0.25]; the drift stays near 1e-13 per step for
        # about 1e12 steps, so a lower cap ends the same way, only sooner.
        monkeypatch.setattr(generators, "_POWER_MAX_ITERS", 10**4)
        table = [[1 - 1e-13, 1e-13], [3e-13, 1 - 3e-13]]
        rate = 0.75 * h0_bernoulli(1e-13) + 0.25 * h0_bernoulli(3e-13)
        for solve, exact in (
            (lambda: stationary_distribution(table), [0.75, 0.25]),
            (lambda: analytic_entropy_rate(ProcessSpec.markov(table)), rate),
        ):
            try:
                got = solve()
            except DegenerateProcessError as err:
                assert "did not converge" in str(err)
            else:
                assert got == pytest.approx(exact, rel=1e-9)

    def test_asymmetric_slow_flips_settle_on_the_law(self):
        # gap 1.5e-3: stopping at an L1 step of 1e-12 would leave pi about
        # 7e-10 short of [2/3, 1/3]
        pi = stationary_distribution([[1 - 1e-3, 1e-3], [2e-3, 1 - 2e-3]])
        assert pi == pytest.approx([2 / 3, 1 / 3], abs=1e-11)

    @pytest.mark.parametrize("eps", [10.0**-k for k in range(1, 10)])
    def test_small_flip_probabilities(self, eps):
        spec = symmetric_binary_markov(eps)
        assert analytic_entropy_rate(spec) == pytest.approx(h0_bernoulli(eps), abs=1e-12)
        assert len(generate(spec, 1000, 0)) == 1000


class TestAnalyticEntropyRate:
    def test_fair_bernoulli(self):
        assert analytic_entropy_rate(ProcessSpec.bernoulli(0.5)) == 1.0

    def test_symmetric_chain_equals_flip_entropy(self):
        rate = analytic_entropy_rate(symmetric_binary_markov(0.1))
        assert rate == pytest.approx(0.46900, abs=5e-6)
        assert rate == pytest.approx(h0_bernoulli(0.1), abs=1e-12)

    def test_quarter_flip_chain(self):
        rate = analytic_entropy_rate(symmetric_binary_markov(0.25))
        assert rate == pytest.approx(0.81128, abs=5e-6)

    def test_deterministic_kinds_are_zero(self):
        assert analytic_entropy_rate(ProcessSpec.periodic([0, 1])) == 0.0
        assert analytic_entropy_rate(ProcessSpec.periodic([0])) == 0.0

    def test_asymmetric_chain_weighted_rows(self):
        table = np.array([[0.9, 0.1], [0.2, 0.8]])
        pi = stationary_by_eigendecomposition(table, 2, 1)
        want = pi[0] * h0_bernoulli(0.1) + pi[1] * h0_bernoulli(0.2)
        got = analytic_entropy_rate(ProcessSpec.markov(table))
        assert got == pytest.approx(want, abs=1e-10)

    def test_analytic_chain_is_monotone(self):
        # H <= H0 exactly for the generator family
        for eps in (0.05, 0.1, 0.3, 0.5):
            spec = symmetric_binary_markov(eps)
            assert analytic_entropy_rate(spec) <= 1.0 + 1e-12

    def test_monotone_hq_estimates_on_generator_output(self):
        for spec, seed in ((ProcessSpec.bernoulli(0.5), 5), (symmetric_binary_markov(0.1), 6)):
            s = generate(spec, 10**5, seed)
            profile = entropy_profile(s, 3)
            chain = (profile.h0,) + profile.hq
            for lo, hi in zip(chain[1:], chain):
                assert lo <= hi + 0.01
