"""Entropy estimators over symbol sequences.

Block entropies are plug-in estimates over overlapping q-grams; the order-q
conditional entropy is the difference of consecutive block entropies,
clamped at zero.  All values are in bits.  The plug-in conditional
entropies estimate a stationary source's entropy rate from above only
while A**(q+1) is small against n; past that they fall below it, as sparse
q-gram counts look more predictable than the source (an order-1 chain over
A = 20 at n = 10**6 puts hq_3 0.035 bits under the rate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sequence import SymbolSequence

__all__ = [
    "EntropyProfile",
    "Q_MAX_LIMIT",
    "h0_bernoulli",
    "empirical_h0",
    "empirical_block_entropy",
    "empirical_hq",
    "entropy_profile",
]

# Beyond this order the plug-in estimates are noise at any realistic n; the
# limit bounds noise, not memory, which does not grow with q.
Q_MAX_LIMIT = 16


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
    # memory than the codes themselves, so those are copied into the
    # narrowest unsigned type that holds size - 1, sorted in place, and
    # counted as the lengths of runs of equal keys.
    if size <= grams.size:
        counts = np.bincount(grams)
        return counts[counts > 0]
    keys = grams.astype(np.min_scalar_type(size - 1))
    keys.sort()
    ends = np.flatnonzero(keys[1:] != keys[:-1])
    return np.diff(ends, prepend=-1, append=keys.size - 1)


def _pair_ranks(prefix: np.ndarray, symbol: np.ndarray) -> tuple[np.ndarray, int]:
    """Ranks of the (prefix, symbol) pairs in lexicographic order, and the
    number of distinct pairs."""
    order = np.lexsort((symbol, prefix))
    prefix, symbol = prefix[order], symbol[order]
    new = np.empty(order.size, dtype=np.bool_)
    new[0] = True
    new[1:] = (prefix[1:] != prefix[:-1]) | (symbol[1:] != symbol[:-1])
    seen = np.cumsum(new)
    ranks = np.empty(order.size, dtype=np.int64)
    ranks[order] = seen - 1
    return ranks, int(seen[-1])


def _block_entropies(seq: SymbolSequence, q_lo: int, q_hi: int) -> list[float]:
    """Block entropies of orders q_lo..q_hi, in order; both bounds must be valid."""
    A = seq.alphabet.size
    data = seq.data
    if data.dtype == np.uint64:
        # Symbols lie below 2**63, so they read the same as int64, and the
        # sums below stay in int64.
        data = data.view(np.int64)
    n = len(seq)
    blocks = []
    # Order-q codes rank the windows in lexicographic order and lie below
    # ``size``.  Order q + 1 extends them in place (drop the last code, shift
    # by A, add the next symbol); where that would leave int64, the windows
    # are numbered instead by ranking their (code, next symbol) pairs.
    grams = data.astype(np.int64)
    size = A
    for q in range(1, q_hi + 1):
        if q > 1:
            if size * A > 2**63 or A >= 2**63:
                grams, size = _pair_ranks(grams[:-1], data[q - 1 :])
            else:
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
    windows are numbered instead by ranking their (order-(q-1) code, last
    symbol) pairs.  The codes are counted by direct addressing when their
    range is no larger than the number of windows, so the count table is
    never larger than the code array; otherwise a copy in the narrowest
    unsigned type that holds the range is sorted and the counts are the
    lengths of its runs of equal codes.
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
    direct addressing or by one sort of a narrow copy of the codes, and a
    rare sort of (code, symbol) pairs where the codes would overflow, as
    :func:`empirical_block_entropy` describes.  Memory stays a few code
    arrays of length n at every order.
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
