import numpy as np
import pytest

from lzwmetrics import (
    Alphabet,
    H0_DEGENERATE_WARNING,
    ProcessSpec,
    RHO2_NEGATIVE_WARNING,
    SHORT_SEQUENCE_WARNING,
    SymbolSequence,
    analyze,
    encode,
    generate,
    metrics,
    rho0,
    rho1_analytic,
    rho1_surrogate,
    rho2,
    shuffle,
    symmetric_binary_markov,
)

from oracles import constant_run_codes, footnote_bits


def seq(symbols, A=2):
    return SymbolSequence(Alphabet(A), np.array(symbols, dtype=np.int64))


class TestRho0:
    def test_hand_traced_values(self):
        assert rho0(4.0, 4) == 1.0
        assert rho0(3.0, 4) == 0.75
        assert rho0(0.0, 100) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            rho0(1.0, 0)
        with pytest.raises(ValueError):
            rho0(-1.0, 10)


class TestRho1Analytic:
    def test_hand_traced_values(self):
        assert rho1_analytic(4, 4, 1.0) == 2.0
        assert rho1_analytic(1, 2, 1.0) == 0.5

    def test_degenerate_h0_is_undefined(self):
        assert rho1_analytic(5, 100, 0.0) is None
        assert rho1_analytic(5, 100, 1e-12) is None

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            rho1_analytic(0, 4, 1.0)
        with pytest.raises(ValueError):
            rho1_analytic(4, 1, 1.0)
        with pytest.raises(ValueError):
            rho1_analytic(4, 4, -0.1)


class TestRho1Surrogate:
    def test_constant_sequence_is_exactly_one(self):
        s = seq([0] * 500)
        assert rho1_surrogate(encode(s).description_length_bits, s, 5, 0) == 1.0

    def test_deterministic_in_seed(self):
        s = generate(ProcessSpec.bernoulli(0.5), 2000, 1)
        l_lzw = encode(s).description_length_bits
        assert rho1_surrogate(l_lzw, s, 4, 9) == rho1_surrogate(l_lzw, s, 4, 9)

    def test_iid_bits_near_one(self):
        s = generate(ProcessSpec.bernoulli(0.5), 10**5, 1)
        assert 0.97 <= rho1_surrogate(encode(s).description_length_bits, s, 10, 1) <= 1.03

    def test_markov_structure_detected(self):
        s = generate(symmetric_binary_markov(0.1), 10**6, 1)
        assert 0.40 <= rho1_surrogate(encode(s).description_length_bits, s, 10, 1) <= 0.60

    def test_surrogates_lengthen_structured_input(self):
        # shuffling destroys the temporal structure LZW exploits
        for s_id in range(1, 6):
            s = generate(symmetric_binary_markov(0.1), 10**5, s_id)
            l_orig = encode(s).description_length_bits
            l_shuf = [
                encode(shuffle(s, s_id + k)).description_length_bits for k in (1, 2, 3)
            ]
            assert sum(l_shuf) / 3 >= l_orig

    def test_no_two_windows_share_a_shuffle(self, monkeypatch):
        # windows are seeded base + w; surrogate k of window w must not repeat
        # surrogate k - 1 of window w + 1
        s = SymbolSequence(Alphabet(64), np.arange(64))
        seen = []

        def recording_shuffle(seq, seed):
            out = shuffle(seq, seed)
            seen.append(out.data.tobytes())
            return out

        monkeypatch.setattr(metrics, "shuffle", recording_shuffle)
        for w in range(6):
            rho1_surrogate(encode(s).description_length_bits, s, 4, 7 + w)
        assert len(seen) == 24
        assert len(set(seen)) == 24

    def test_rejects_zero_surrogates(self):
        with pytest.raises(ValueError):
            rho1_surrogate(2.0, seq([0, 1]), 0, 0)


class TestRho2:
    def test_values(self):
        assert rho2(1.0, 0.469) == pytest.approx(0.531)
        assert rho2(0.0, 0.0) == 0.0
        assert rho2(1.0, 1.08) == pytest.approx(-0.08)


class TestAnalyze:
    def test_hand_traced_composition(self):
        report = analyze(seq([0, 1, 1, 0]), q_max=1, surrogates=0, seed=0)
        assert report.n == 4
        assert report.alphabet_size == 2
        assert report.c == 4
        assert report.l_lzw_bits == 4.0
        assert report.rho0 == 1.0
        assert report.rho2 == 0.0
        assert report.rho1_analytic == 2.0
        assert report.rho1_surrogate is None
        assert SHORT_SEQUENCE_WARNING in report.warnings

    def test_constant_kilosymbol_run(self):
        # expected values come from the closed-form run-length parse
        expected_codes = constant_run_codes(1000)
        expected_l = footnote_bits(expected_codes)
        report = analyze(seq([0] * 1000), q_max=2, surrogates=4, seed=3)
        assert report.c == len(expected_codes)
        assert report.l_lzw_bits == expected_l
        assert report.rho0 == expected_l / 1000
        assert report.rho1_surrogate == 1.0
        assert report.entropy.h0 == 0.0
        assert report.rho1_analytic is None
        assert H0_DEGENERATE_WARNING in report.warnings
        assert SHORT_SEQUENCE_WARNING not in report.warnings

    def test_negative_rho2_carries_warning(self):
        # short i.i.d. runs parse above one bit per symbol
        s = generate(ProcessSpec.bernoulli(0.5), 512, 1)
        report = analyze(s, q_max=2, surrogates=0, seed=1)
        assert report.rho2 < 0
        assert RHO2_NEGATIVE_WARNING in report.warnings

    def test_field_identities(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            s = seq(rng.integers(0, 2, int(rng.integers(2, 3000))))
            report = analyze(s, q_max=1, surrogates=2, seed=4)
            assert report.rho0 == report.l_lzw_bits / report.n
            assert report.rho2 == report.entropy.h0 - report.rho0
            assert report.rho0 >= 0
            if report.rho1_analytic is not None:
                assert report.rho1_analytic >= 0
            if report.rho1_surrogate is not None:
                assert report.rho1_surrogate >= 0

    def test_bit_identical_repeat_runs(self):
        s = generate(symmetric_binary_markov(0.2), 4000, 11)
        assert analyze(s, 3, 5, 17) == analyze(s, 3, 5, 17)

    def test_surrogates_zero_disables_ratio(self):
        report = analyze(seq([0, 1] * 600), q_max=2, surrogates=0, seed=0)
        assert report.rho1_surrogate is None
        assert report.surrogate_count == 0

    def test_propagates_entropy_profile_errors(self):
        with pytest.raises(ValueError):
            analyze(seq([0, 1]), q_max=4, surrogates=0, seed=0)
