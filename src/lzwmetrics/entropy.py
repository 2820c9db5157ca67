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

# The damped step stops once it moves pi by at most this much in L1, a few
# units of float64 rounding on a unit-mass vector.  A chain that has not
# mixed still moves pi by about its spectral gap times the distance left,
# so a slow chain runs into the cap instead of stopping early; only a gap
# near 1e-15 per step could hide a sizable error below this step.
_POWER_TOL = 1e-15
_POWER_MAX_ITERS = 10**6

_ROW_SUM_TOL = 1e-12


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


def _hops(start: int, neighbours: np.ndarray) -> np.ndarray:
    """Hops from ``start`` to each state along rows of ``neighbours``, -1 if unreached."""
    hops = np.full(len(neighbours), -1)
    frontier, depth = [start], 0
    while frontier:
        hops[frontier] = depth
        found = neighbours[frontier].ravel()
        # A set, not np.unique (which imports numpy.ma, about 1 MiB resident)
        # or np.sort (about 0.3 MiB of kernel pages) in every chain's run.
        frontier, depth = list(set(found[hops[found] < 0].tolist())), depth + 1
    return hops


def _closed_class(table: np.ndarray, A: int, order: int) -> np.ndarray:
    """Mask of the one closed class of the composite-state chain of a valid table.

    State s moves to (s mod A**(m-1))*A + y through slot y, and state t is
    entered from x*A**(m-1) + t//A through slot t mod A; a slot of
    probability 0 leads back to its own state instead, which adds no reach.
    From r = 0, while some state cannot reach r, r moves to a state r
    reaches that cannot reach r back, whose forward set is strictly
    smaller.  If there is none, r's class is closed and the states that
    cannot reach it lead to another closed class, so
    :class:`DegenerateProcessError` is raised.  Once every state reaches r,
    the closed class is unique and equals r's forward set.
    """
    states = np.arange(A**order)[:, None]
    successors = np.where(table > 0, states % A ** (order - 1) * A + np.arange(A), states)
    sources = np.arange(A) * A ** (order - 1) + states // A
    predecessors = np.where(table[sources, states % A] > 0, sources, states)
    r = 0
    while not (behind := _hops(r, predecessors) >= 0).all():
        # r moves to the farthest escape, so a transient path into a cycle
        # is left in one move instead of one move per state on it.
        escapes = np.where(behind, -1, _hops(r, successors))
        if escapes.max() < 0:
            raise DegenerateProcessError("stationary distribution is not unique")
        r = int(np.argmax(escapes))
    return _hops(r, successors) >= 0


def stationary_distribution(
    transition_table: np.ndarray, alphabet_size: int, order: int
) -> np.ndarray:
    """Stationary law of the composite-state chain behind an order-m table.

    ``transition_table`` holds one next-symbol distribution per A**m
    composite state; the induced state chain shifts the oldest symbol out
    and the sampled one in.  A table of the wrong shape, with a negative
    entry or with a row whose sum is not within 1e-12 of 1 (a NaN included)
    raises ``ValueError``.  The law is unique exactly when the support
    graph has one closed class, which is checked next; otherwise
    :class:`DegenerateProcessError` is raised.  Damped power iteration
    (averaging each iterate with its successor keeps the fixed points and
    suppresses periodic oscillation) then starts from the uniform law on
    that class.  No mass leaves the class, so transient states get exactly
    0.  The iteration stops at an L1 step of 1e-15, near float64 rounding,
    so a chain that mixes too slowly to settle within 10**6 steps raises
    :class:`DegenerateProcessError` instead of returning a law it has not
    reached.  :class:`~lzwmetrics.generators.ProcessSpec` calls this once
    and keeps the law for sampling and for :func:`analytic_entropy_rate`.
    """
    table = np.asarray(transition_table, dtype=np.float64)
    n_states, A = shape = (alphabet_size**order, alphabet_size)
    if table.shape != shape:
        raise ValueError(f"transition table must have shape {shape}, got {table.shape}")
    if (table < 0).any():
        raise ValueError("transition probabilities must be non-negative")
    # Written so that a NaN sum, which compares false, fails the check.
    if not (np.abs(table.sum(axis=1) - 1.0) <= _ROW_SUM_TOL).all():
        raise ValueError("transition rows must each sum to 1")
    closed = _closed_class(table, A, order)
    pi = closed / np.count_nonzero(closed)
    targets = ((np.arange(n_states) % (n_states // A))[:, None] * A + np.arange(A)).ravel()
    for _ in range(_POWER_MAX_ITERS):
        flow = (pi[:, None] * table).ravel()
        new = 0.5 * (pi + np.bincount(targets, weights=flow, minlength=n_states))
        new /= new.sum()
        if np.abs(new - pi).sum() <= _POWER_TOL:
            return new
        pi = new
    raise DegenerateProcessError(
        f"power iteration did not converge on {n_states} states in {_POWER_MAX_ITERS} steps"
    )


def analytic_entropy_rate(spec: "ProcessSpec") -> float:
    """Exact entropy rate in bits/symbol of a generator specification.

    Bernoulli(p) has rate equal to the binary entropy of p; an order-m
    Markov chain has rate sum_s pi(s) * H(row_s) with pi the stationary
    distribution that the spec keeps from its construction; periodic and
    constant processes are deterministic and have rate 0.
    """
    kind = spec.kind
    if kind == "bernoulli":
        return h0_bernoulli(spec.p)
    if kind == "markov":
        row_h = np.array([_entropy_bits(row[row > 0], 1) for row in spec.transition_table])
        return float(spec._stationary @ row_h)
    return 0.0
