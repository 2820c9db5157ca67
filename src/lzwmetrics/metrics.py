"""Normalized LZW complexity metrics and the per-sequence report.

rho0 is the LZW compression ratio, description length per input symbol, and
estimates the entropy rate.  rho1 compares the description length against a
first-order-entropy baseline, either analytically through the phrase count
or empirically against reshuffled surrogates; values well below 1 mean the
sequence carries temporal structure invisible to the symbol histogram.
rho2 is the gap between the first-order entropy and rho0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import EntropyProfile, entropy_profile
from .lzw import encode
from .sequence import SymbolSequence, shuffle

__all__ = [
    "MetricReport",
    "rho0",
    "rho1_analytic",
    "rho1_surrogate",
    "rho2",
    "analyze",
    "SHORT_SEQUENCE_WARNING",
    "RHO2_NEGATIVE_WARNING",
    "H0_DEGENERATE_WARNING",
    "DESCRIPTION_LENGTH_NOTE",
]

# Below this, h0 counts as zero for the rho1 denominator; exact float-zero
# tests are fragile.
H0_DEGENERATE_EPSILON = 1e-9

SHORT_SEQUENCE_WARNING = "short sequence"
RHO2_NEGATIVE_WARNING = "rho2 negative"
H0_DEGENERATE_WARNING = "h0 degenerate"

# Carried on every report: compression can only ever over-estimate
# algorithmic complexity (low-complexity sequences like the digits of pi
# are incompressible to LZW).
DESCRIPTION_LENGTH_NOTE = "l_lzw is an upper bound on algorithmic description length"


@dataclass(frozen=True)
class MetricReport:
    """All metrics for one sequence, plus provenance and warnings.

    ``rho1_analytic`` and ``rho1_surrogate`` are None when undefined
    (degenerate h0) or disabled (surrogate count 0).  ``rho2`` keeps its
    sign: finite-length parsing overhead can push rho0 above h0, and
    clamping would hide exactly the estimator behavior a user needs to
    see, so negative values are reported together with a warning.
    """

    n: int
    alphabet_size: int
    c: int
    dict_size: int
    l_lzw_bits: float
    bound_bits: float
    rho0: float
    rho1_analytic: float | None
    rho1_surrogate: float | None
    rho2: float
    entropy: EntropyProfile
    surrogate_count: int
    seed: int
    warnings: tuple[str, ...]
    source: str | None = None
    note: str = DESCRIPTION_LENGTH_NOTE


def rho0(l_lzw_bits: float, n: int) -> float:
    """LZW compression ratio: description length per input symbol (bits)."""
    if n < 1:
        raise ValueError(f"sequence length must be at least 1, got {n}")
    if l_lzw_bits < 0:
        raise ValueError(f"description length must be non-negative, got {l_lzw_bits}")
    return l_lzw_bits / n


def rho1_analytic(c: int, n: int, h0: float) -> float | None:
    """Phrase count against the first-order baseline: c * log2(n) / (n * h0).

    Returns None when h0 is degenerate (below 1e-9 bits); the ratio is then
    undefined rather than a number, and callers should surface a warning
    instead of raising.
    """
    if n < 2:
        raise ValueError(f"sequence length must be at least 2, got {n}")
    if c < 1:
        raise ValueError(f"phrase count must be at least 1, got {c}")
    if h0 < 0:
        raise ValueError(f"h0 must be non-negative, got {h0}")
    if h0 < H0_DEGENERATE_EPSILON:
        return None
    return c * math.log2(n) / (n * h0)


def rho1_surrogate(l_lzw_bits: float, seq: SymbolSequence, surrogates: int, seed: int) -> float:
    """Description length relative to the mean over shuffled surrogates.

    ``l_lzw_bits`` is the description length of ``seq`` itself, as priced by
    its own parse; only the surrogates are parsed here.  Shuffling preserves
    the symbol histogram while destroying temporal order, which drives the
    surrogate description length toward n * h0.  Surrogate k = 1..S
    shuffles with a generator seeded from ``SeedSequence([seed, k])``: each
    (seed, k) pair has its own stream, so windows seeded base + w never
    share a shuffle, and the result is deterministic for a fixed seed.  The
    denominator is always positive (even a single phrase costs one bit).
    """
    if surrogates < 1:
        raise ValueError(f"surrogate count must be at least 1, got {surrogates}")
    lengths = [_surrogate_bits(seq, seed, k) for k in range(1, surrogates + 1)]
    return _surrogate_ratio(l_lzw_bits, lengths)


def _surrogate_bits(seq: SymbolSequence, seed: int, k: int) -> float:
    """Description length of surrogate k of ``seq`` for unit seed ``seed``."""
    return encode(shuffle(seq, np.random.SeedSequence([seed, k]))).description_length_bits


def _surrogate_ratio(l_lzw_bits: float, lengths: list[float]) -> float:
    # l / (fsum(ls) / k) written as l * k / fsum(ls): when every surrogate
    # equals the original (constant input) both sides round to the same
    # float and the ratio is exactly 1.0.  fsum is exactly rounded, so the
    # ratio does not depend on the order in which the lengths were priced.
    return l_lzw_bits * len(lengths) / math.fsum(lengths)


def rho2(h0: float, rho0_value: float) -> float:
    """First-order entropy minus the LZW rate estimate, sign preserved."""
    return h0 - rho0_value


def analyze(
    seq: SymbolSequence,
    q_max: int = 4,
    surrogates: int = 10,
    seed: int = 0,
) -> MetricReport:
    """Run the full metric pipeline on one sequence.

    Encodes the sequence, prices its code stream, estimates the entropy
    profile up to order q_max, and computes every rho.  ``surrogates=0``
    disables the shuffle ensemble.  Warnings flag inputs shorter than 1000
    symbols (the metrics are length-sensitive, so compare equal lengths
    only), negative rho2, and degenerate h0.
    """
    if surrogates < 0:
        raise ValueError(f"surrogate count must be non-negative, got {surrogates}")
    n = len(seq)
    result = encode(seq)
    profile = entropy_profile(seq, q_max)
    l_lzw = result.description_length_bits
    r0 = rho0(l_lzw, n)
    r1a = rho1_analytic(result.phrase_count, n, profile.h0)
    r1s = rho1_surrogate(l_lzw, seq, surrogates, seed) if surrogates >= 1 else None
    r2 = rho2(profile.h0, r0)
    warnings: list[str] = []
    if n < 1000:
        warnings.append(SHORT_SEQUENCE_WARNING)
    if r2 < 0:
        warnings.append(RHO2_NEGATIVE_WARNING)
    if r1a is None:
        warnings.append(H0_DEGENERATE_WARNING)
    return MetricReport(
        n=n,
        alphabet_size=seq.alphabet.size,
        c=result.phrase_count,
        dict_size=result.dict_size,
        l_lzw_bits=result.description_length_bits,
        bound_bits=result.bound_bits,
        rho0=r0,
        rho1_analytic=r1a,
        rho1_surrogate=r1s,
        rho2=r2,
        entropy=profile,
        surrogate_count=surrogates,
        seed=seed,
        warnings=tuple(warnings),
    )
