"""Entropy estimators and analytic entropy rates for generator processes.

Block entropies are plug-in estimates over overlapping q-grams; the order-q
conditional entropy is the difference of consecutive block entropies,
clamped at zero.  All values are in bits.  For synthetic processes whose law
is known exactly, :func:`analytic_entropy_rate` returns the true entropy
rate, which the conditional-entropy estimates (and the LZW compression
ratio) approach from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .sequence import SymbolSequence

if TYPE_CHECKING:
    from .generators import ProcessSpec

__all__ = [
    "EntropyProfile",
    "DegenerateProcessError",
    "Q_MAX_LIMIT",
    "h0_bernoulli",
    "empirical_h0",
    "empirical_block_entropy",
    "empirical_hq",
    "entropy_profile",
    "analytic_entropy_rate",
    "stationary_distribution",
]

# Beyond this order the plug-in estimates are noise at any realistic n; the
# limit bounds noise, not memory, which does not grow with q.
Q_MAX_LIMIT = 16

_POWER_TOL = 1e-12
_POWER_MAX_ITERS = 10**6
_UNIQUENESS_TOL = 1e-9


class DegenerateProcessError(ValueError):
    """The process has no unique stationary distribution."""


@dataclass(frozen=True)
class EntropyProfile:
    """Univariate entropy plus conditional entropies of orders 1..q_max.

    ``hq[i]`` estimates H(X_{q+1} | X_1..X_q) for q = i + 1; the chain
    h0 >= hq[0] >= hq[1] >= ... holds for the true process quantities and,
    within estimation error, for these plug-in values.
    """

    h0: float
    hq: tuple[float, ...]
    q_max: int


def h0_bernoulli(p: float) -> float:
    """Binary entropy -p*log2(p) - (1-p)*log2(1-p), with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _entropy_bits(counts: np.ndarray, total: int) -> float:
    probs = counts / total
    # 0.0 - sum, not -sum: a single block of probability 1 sums to 0.0, and
    # its negation would be reported as -0.0.
    return float(0.0 - (probs * np.log2(probs)).sum())


def empirical_h0(seq: SymbolSequence) -> float:
    """Shannon entropy (bits) of the empirical symbol histogram: the q=1 block entropy."""
    return empirical_block_entropy(seq, 1)


def _code_counts(grams: np.ndarray, size: int) -> np.ndarray:
    # Nonzero counts in ascending code order.  A table no longer than the
    # codes is counted by direct addressing; a larger one would cost more
    # memory than the codes themselves, so those are sorted.
    if size <= grams.size:
        counts = np.bincount(grams)
        return counts[counts > 0]
    return np.unique(grams, return_counts=True)[1]


def _block_entropies(seq: SymbolSequence, q_lo: int, q_hi: int) -> list[float]:
    """Block entropies of orders q_lo..q_hi, in order; both bounds must be valid."""
    A = seq.alphabet.size
    data = seq.data
    n = len(seq)
    blocks = []
    # Order-q codes rank the windows in lexicographic order and lie below
    # ``size``.  Order q + 1 extends them in place (drop the last code, shift
    # by A, add the next symbol); codes that would leave int64 are first
    # replaced by their ranks among the distinct codes.
    grams = data.astype(np.int64)
    size = A
    for q in range(1, q_hi + 1):
        if q > 1:
            if size * A > 2**63:
                distinct, grams = np.unique(grams, return_inverse=True)
                size = distinct.size
            grams = grams[:-1]
            grams *= A
            grams += data[q - 1 :]
            size *= A
        if q >= q_lo:
            blocks.append(_entropy_bits(_code_counts(grams, size), n - q + 1))
    return blocks


def empirical_block_entropy(seq: SymbolSequence, q: int) -> float:
    """Entropy (bits) of the empirical distribution of overlapping q-grams.

    All n-q+1 windows count, so consecutive orders share their sample
    positions up to boundary terms.  Each window gets one int64 code that
    keeps the lexicographic window order, built from the order-(q-1) codes
    in one pass per order; where the next codes could overflow, the
    order-(q-1) codes are first renumbered by rank.  The codes are counted
    by direct addressing when their range is no larger than the number of
    windows, so the count table is never larger than the code array;
    otherwise they are sorted.
    """
    n = len(seq)
    if q < 1:
        raise ValueError(f"block order must be at least 1, got {q}")
    if q > n:
        raise ValueError(f"block order {q} exceeds sequence length {n}")
    return _block_entropies(seq, q, q)[0]


def _conditional(block_q: float, block_next: float) -> float:
    # Finite samples can make the raw difference slightly negative, which is
    # meaningless for a conditional entropy.
    return max(0.0, block_next - block_q)


def empirical_hq(seq: SymbolSequence, q: int) -> float:
    """Plug-in conditional entropy H(X_{q+1} | X_1..X_q) in bits.

    Computed as the difference of consecutive block entropies and clamped
    below at zero.
    """
    n = len(seq)
    if not 1 <= q <= n - 1:
        raise ValueError(f"order q must lie in 1..{n - 1}, got {q}")
    return _conditional(*_block_entropies(seq, q, q + 1))


def entropy_profile(seq: SymbolSequence, q_max: int) -> EntropyProfile:
    """Bundle :func:`empirical_h0` with conditional entropies up to q_max.

    One block entropy per order 1..q_max+1; the first is h0.  Every order
    costs one pass over the codes of the order below plus one count, by
    direct addressing or by sorting, and a rare renumbering sort where the
    codes would overflow, as :func:`empirical_block_entropy` describes.
    Memory stays a few code arrays of length n at every order.
    """
    n = len(seq)
    if q_max < 1:
        raise ValueError(f"q_max must be at least 1, got {q_max}")
    limit = min(n - 1, Q_MAX_LIMIT)
    if q_max > limit:
        raise ValueError(f"q_max {q_max} exceeds min(n - 1, {Q_MAX_LIMIT}) = {limit}")
    blocks = _block_entropies(seq, 1, q_max + 1)
    hq = tuple(_conditional(lo, hi) for lo, hi in zip(blocks, blocks[1:]))
    return EntropyProfile(h0=blocks[0], hq=hq, q_max=q_max)


def stationary_distribution(
    transition_table: np.ndarray, alphabet_size: int, order: int
) -> np.ndarray:
    """Stationary law of the composite-state chain behind an order-m table.

    ``transition_table`` holds one next-symbol distribution per A**m
    composite state; the induced state chain shifts the oldest symbol out
    and the sampled one in.  Damped power iteration (averaging each iterate
    with its successor keeps the fixed points and suppresses period-2
    oscillation) runs from two different starts; disagreement between the
    limits, or failure to converge, means there is no unique stationary
    distribution and :class:`DegenerateProcessError` is raised.
    """
    table = np.asarray(transition_table, dtype=np.float64)
    n_states = alphabet_size**order
    if table.shape != (n_states, alphabet_size):
        raise ValueError(
            f"transition table must have shape ({n_states}, {alphabet_size}), "
            f"got {table.shape}"
        )
    keep = alphabet_size ** (order - 1)
    targets = (
        (np.arange(n_states) % keep)[:, None] * alphabet_size
        + np.arange(alphabet_size)[None, :]
    ).ravel()

    def step(pi: np.ndarray) -> np.ndarray:
        flow = (pi[:, None] * table).ravel()
        return np.bincount(targets, weights=flow, minlength=n_states)

    def iterate(pi: np.ndarray) -> np.ndarray:
        for _ in range(_POWER_MAX_ITERS):
            new = 0.5 * (pi + step(pi))
            new /= new.sum()
            if np.abs(new - pi).sum() <= _POWER_TOL:
                return new
            pi = new
        raise DegenerateProcessError(
            "power iteration did not converge to a stationary distribution"
        )

    uniform = np.full(n_states, 1.0 / n_states)
    skewed = np.zeros(n_states)
    skewed[0] = 1.0
    pi_a = iterate(uniform)
    pi_b = iterate(skewed)
    if np.abs(pi_a - pi_b).sum() > _UNIQUENESS_TOL:
        raise DegenerateProcessError("stationary distribution is not unique")
    return pi_a


def _row_entropy_bits(row: np.ndarray) -> float:
    probs = row[row > 0]
    return float(0.0 - (probs * np.log2(probs)).sum())


def analytic_entropy_rate(spec: "ProcessSpec") -> float:
    """Exact entropy rate in bits/symbol of a generator specification.

    Bernoulli(p) has rate equal to the binary entropy of p; an order-m
    Markov chain has rate sum_s pi(s) * H(row_s) with pi its stationary
    distribution; periodic and constant processes are deterministic and
    have rate 0.
    """
    kind = spec.kind
    if kind == "bernoulli":
        return h0_bernoulli(spec.p)
    if kind == "markov":
        table = np.asarray(spec.transition_table, dtype=np.float64)
        pi = stationary_distribution(table, spec.alphabet_size, spec.order)
        row_h = np.array([_row_entropy_bits(row) for row in table])
        return float(pi @ row_h)
    if kind in ("periodic", "constant"):
        return 0.0
    raise ValueError(f"unknown process kind: {kind!r}")
