"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them alongside the pytest verdicts).

Expected values fall into three groups: exact hand-traceable parses,
analytic oracles from the generator processes, and finite-length bands that
were measured from the implementation on fixed seeds and are asserted with
their stated tolerances and runtime budgets.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import lzwmetrics
from lzwmetrics import (
    Alphabet,
    ProcessSpec,
    SymbolSequence,
    analytic_entropy_rate,
    analyze,
    decode,
    empirical_block_entropy,
    empirical_h0,
    empirical_hq,
    encode,
    entropy_profile,
    generate,
    h0_bernoulli,
    rho1_surrogate,
    shuffle,
    symmetric_binary_markov,
)

from oracles import gram_entropy_bits


def seq(symbols, A=2):
    return SymbolSequence(Alphabet(A), np.array(symbols, dtype=np.int64))


def check(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_hand_traced_parses():
    a2 = Alphabet(2)
    s0110, s0000 = seq([0, 1, 1, 0]), seq([0, 0, 0, 0])
    start = time.perf_counter()
    r1, r2 = encode(s0110), encode(s0000)
    d1, d2 = decode(r1.codes, a2), decode(r2.codes, a2)
    elapsed = time.perf_counter() - start
    ok = (
        list(r1.codes) == [0, 1, 1, 0]
        and r1.phrase_count == 4
        and list(r2.codes) == [0, 2, 0]
        and r2.phrase_count == 3
        and d1 == s0110
        and d2 == s0000
        and elapsed < 1e-3
    )
    check(1, ok, f"codes {list(r1.codes)} / {list(r2.codes)}, {elapsed * 1e6:.0f} us")


def test_criterion_2_round_trip_corpus():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for _ in range(10_000):
        A = int(rng.integers(2, 9))
        n = int(rng.integers(1, 513))
        s = seq(rng.integers(0, A, n), A=A)
        assert decode(encode(s).codes, s.alphabet) == s
    elapsed = time.perf_counter() - start
    check(2, elapsed < 10.0, f"10000 sequences round-tripped in {elapsed:.1f} s")


def test_criterion_3_rate_convergence_for_fair_bits():
    spec = ProcessSpec.bernoulli(0.5)
    start = time.perf_counter()
    in_band = []
    improved = 0
    for s_id in range(1, 6):
        big = encode(generate(spec, 10**6, s_id))
        small = encode(generate(spec, 10**4, s_id))
        r_big = big.description_length_bits / 10**6
        r_small = small.description_length_bits / 10**4
        in_band.append(0.95 <= r_big <= 1.25)
        improved += abs(r_big - 1.0) < abs(r_small - 1.0)
    elapsed = time.perf_counter() - start
    ok = all(in_band) and improved >= 4 and elapsed < 60.0
    check(3, ok, f"band 5/5={all(in_band)}, direction {improved}/5, {elapsed:.1f} s")


def test_criterion_4_structured_source_detection():
    markov = symmetric_binary_markov(0.1)
    iid = ProcessSpec.bernoulli(0.5)
    oracle = analytic_entropy_rate(markov)
    start = time.perf_counter()
    ok = abs(oracle - 0.46900) < 5e-6 and oracle == h0_bernoulli(0.1)
    ratios_markov, ratios_iid = [], []
    for s_id in range(1, 6):
        s = generate(markov, 10**6, s_id)
        h0 = empirical_h0(s)
        l_lzw = encode(s).description_length_bits
        r0 = l_lzw / 10**6
        r1 = rho1_surrogate(l_lzw, s, 10, s_id)
        ratios_markov.append(r1)
        ok = ok and 0.995 <= h0 <= 1.0 and 0.42 <= r0 <= 0.62 and 0.40 <= r1 <= 0.65
        u = generate(iid, 10**6, s_id)
        r1u = rho1_surrogate(encode(u).description_length_bits, u, 10, s_id)
        ratios_iid.append(r1u)
        ok = ok and 0.93 <= r1u <= 1.07
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    check(
        4,
        ok,
        f"markov rho1 {min(ratios_markov):.3f}..{max(ratios_markov):.3f}, "
        f"iid rho1 {min(ratios_iid):.3f}..{max(ratios_iid):.3f}, "
        f"oracle {oracle:.5f}, {elapsed:.0f} s",
    )


def test_criterion_5_periodic_source():
    start = time.perf_counter()
    s = generate(ProcessSpec.periodic([0, 1]), 10**5, 0)
    r0 = encode(s).description_length_bits / 10**5
    h0 = empirical_h0(s)
    hq1 = empirical_hq(s, 1)
    elapsed = time.perf_counter() - start
    ok = r0 < 0.06 and hq1 < 1e-6 and h0 == 1.0 and elapsed < 5.0
    check("5 (periodic)", ok, f"rho0={r0:.4f}, hq1={hq1:.2e}, h0={h0}, {elapsed:.1f} s")


def test_criterion_5_constant_source():
    # The 0.02 ceiling is not reachable at this length: the parse is fully
    # deterministic with c = 447 phrases and max code 446, pricing the
    # stream at about 3939 bits, i.e. rho0 close to 0.039.  The criterion
    # is asserted as stated and expected to fail; see the decisions ledger.
    start = time.perf_counter()
    s = generate(ProcessSpec.constant(0), 10**5, 0)
    r0 = encode(s).description_length_bits / 10**5
    elapsed = time.perf_counter() - start
    ok = r0 < 0.02 and elapsed < 5.0
    check("5 (constant)", ok, f"rho0={r0:.4f} vs required < 0.02, {elapsed:.1f} s")


def test_criterion_6_entropy_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 13):
        for bits in itertools.product((0, 1), repeat=n):
            s = seq(bits)
            for q in range(1, min(4, n) + 1):
                diff = abs(empirical_block_entropy(s, q) - gram_entropy_bits(bits, q))
                worst = max(worst, diff)
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n = int(rng.integers(13, 33))
        bits = rng.integers(0, 2, n)
        s = seq(bits)
        for q in range(1, 5):
            diff = abs(empirical_block_entropy(s, q) - gram_entropy_bits(bits.tolist(), q))
            worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 60.0
    check(6, ok, f"worst |impl - oracle| = {worst:.2e}, {elapsed:.1f} s")


def test_criterion_7_shuffle_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    ok = True
    for trial in range(1000):
        A = int(rng.integers(2, 7))
        s = seq(rng.integers(0, A, int(rng.integers(1, 513))), A=A)
        t = shuffle(s, trial)
        ok = ok and np.array_equal(
            np.bincount(s.data, minlength=A), np.bincount(t.data, minlength=A)
        )
        ok = ok and empirical_h0(t) == empirical_h0(s)
    constant = seq([0] * 2000)
    ratio = rho1_surrogate(encode(constant).description_length_bits, constant, 10, 5)
    ok = ok and ratio == 1.0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    check(7, ok, f"1000 shuffles exact, constant ratio {ratio}, {elapsed:.1f} s")


def test_criterion_8_monotone_conditional_entropy_chain():
    start = time.perf_counter()
    ok = True
    chains = {}
    for name, spec in (
        ("bernoulli", ProcessSpec.bernoulli(0.5)),
        ("markov", symmetric_binary_markov(0.1)),
    ):
        profile = entropy_profile(generate(spec, 10**5, 1), 3)
        chain = (profile.h0,) + profile.hq
        chains[name] = [round(v, 4) for v in chain]
        ok = ok and all(lo <= hi + 0.01 for hi, lo in zip(chain, chain[1:]))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    check(8, ok, f"{chains}, {elapsed:.1f} s")


def test_criterion_9_pipeline_determinism(tmp_path):
    start = time.perf_counter()
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    rng = np.random.default_rng(9)
    for i in range(10):
        values = rng.normal(size=1500).astype(float)
        (corpus / f"rec{i:02d}.csv").write_text(
            "value\n" + "\n".join(repr(float(v)) for v in values) + "\n"
        )
    # The child imports the package this process imported, installed or not.
    paths = [str(Path(lzwmetrics.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    outputs = []
    for run_id in (1, 2):
        out_path = tmp_path / f"run{run_id}.jsonl"
        proc = subprocess.run(
            [
                sys.executable, "-m", "lzwmetrics.cli",
                "--input", str(corpus), "--format", "csv", "--column", "value",
                "--window", "256", "--qmax", "3", "--surrogates", "5",
                "--seed", "3", "--output", str(out_path),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out_path.read_bytes())
    reports = [json.loads(line) for line in outputs[0].splitlines()]
    elapsed = time.perf_counter() - start
    ok = outputs[0] == outputs[1] and len(reports) == 50 and elapsed < 60.0
    check(9, ok, f"{len(reports)} reports, byte-identical={outputs[0] == outputs[1]}, {elapsed:.1f} s")


def test_criterion_10_rho2_sign_behavior():
    markov_report = analyze(
        generate(symmetric_binary_markov(0.1), 10**6, 1), q_max=1, surrogates=0, seed=1
    )
    iid_report = analyze(
        generate(ProcessSpec.bernoulli(0.5), 10**4, 1), q_max=1, surrogates=0, seed=1
    )
    ok = markov_report.rho2 > 0.3
    warned = "rho2 negative" in iid_report.warnings
    if iid_report.rho2 < 0:
        ok = ok and warned
    check(
        10,
        ok,
        f"markov rho2={markov_report.rho2:.3f}, iid rho2={iid_report.rho2:.3f} "
        f"(warning={'yes' if warned else 'no'})",
    )
