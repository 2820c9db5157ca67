"""Seeded synthetic stochastic processes with known entropy rates.

These generators serve double duty: verification oracles for the
convergence of LZW description length toward the entropy rate, and demo
sources for the command line.  Every ``generate`` call is a pure function
of (spec, n, seed); periodic specs, constant ones included, consume no
randomness at all.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .entropy import stationary_distribution
from .sequence import Alphabet, SymbolSequence, _symbol_dtype

__all__ = [
    "ProcessSpec",
    "symmetric_binary_markov",
    "generate",
]

# Composite-state count cap for order-m chains; A**m beyond this makes the
# stationary-distribution computation and sampling tables unreasonable.
_MAX_STATES = 65536

# Random draws are taken this many at a time.  A Markov chunk over more than
# two states lives as Python floats and ints (about 40 B per draw) while its
# symbols are picked, a two-state chunk as numpy arrays (about 22 B per draw:
# the doubles, one int64 index, a few bool masks), so memory beyond the
# output stays under 3 MiB for any n.  Per-chunk overhead (one generator
# call, one array store) is negligible at this size: chunks of 2^12 to 2^16
# drew at the same speed in the per-symbol loop, and 2^18 or more was slower.
_DRAW_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class ProcessSpec:
    """Parameterization of one synthetic process.

    ``kind`` selects the family and the matching fields must be set:
    ``bernoulli`` needs ``p``, ``markov`` needs ``order`` and a row-stochastic
    ``transition_table`` over A**order states by A symbols, ``periodic``
    needs ``pattern``.  The classmethod constructors fill in the
    bookkeeping; :meth:`constant` is a periodic spec with a one-symbol
    pattern.  A Markov spec keeps a read-only copy of its table and the
    stationary law that :func:`~lzwmetrics.entropy.stationary_distribution`
    computes from it once, at construction, and that function's checks
    apply: a table that is not stochastic raises ``ValueError``; a chain
    with no unique stationary law, or one that mixes too slowly to settle
    on it, raises :class:`DegenerateProcessError`.

    Specs compare and hash by identity, as plain objects do: a spec equals
    itself (and nothing else) and can key a dict or sit in a set, whatever
    arrays it holds.
    """

    kind: str
    alphabet_size: int = 2
    p: float | None = None
    order: int | None = None
    transition_table: np.ndarray | None = None
    pattern: tuple[int, ...] | None = None
    # Stationary law of a Markov spec's state chain, solved once here and
    # read by sampling and by the analytic entropy rate.
    _stationary: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        A = self.alphabet_size
        if A < 2:
            raise ValueError(f"alphabet size must be at least 2, got {A}")
        if self.kind == "bernoulli":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError(f"bernoulli requires p in [0, 1], got {self.p}")
            if A != 2:
                raise ValueError("bernoulli processes are binary (alphabet size 2)")
        elif self.kind == "markov":
            if self.order is None or self.order < 1:
                raise ValueError(f"markov order must be at least 1, got {self.order}")
            if A**self.order > _MAX_STATES:
                raise ValueError(
                    f"state space {A}**{self.order} exceeds the {_MAX_STATES} cap"
                )
            table = np.array(self.transition_table, dtype=np.float64, copy=True)
            pi = stationary_distribution(table, A, self.order)
            table.flags.writeable = pi.flags.writeable = False
            object.__setattr__(self, "transition_table", table)
            object.__setattr__(self, "_stationary", pi)
        elif self.kind == "periodic":
            if not self.pattern:
                raise ValueError("periodic pattern must be non-empty")
            pattern = tuple(int(s) for s in self.pattern)
            if any(not 0 <= s < A for s in pattern):
                raise ValueError(f"pattern symbols must lie in 0..{A - 1}")
            object.__setattr__(self, "pattern", pattern)
        else:
            raise ValueError(f"unknown process kind: {self.kind!r}")

    def __setstate__(self, state: dict) -> None:
        # Unpickled and copied arrays come back writeable; the table and its
        # law stay read-only, and the table is not solved again.
        self.__dict__.update(state)
        for array in (self.transition_table, self._stationary):
            if array is not None:
                array.flags.writeable = False

    @classmethod
    def bernoulli(cls, p: float) -> "ProcessSpec":
        """I.i.d. binary draws with P(symbol 1) = p."""
        return cls(kind="bernoulli", alphabet_size=2, p=float(p))

    @classmethod
    def markov(cls, transition_table, alphabet_size: int = 2) -> "ProcessSpec":
        """Order-m chain; m is inferred from the table's row count."""
        table = np.asarray(transition_table, dtype=np.float64)
        if table.ndim != 2:
            raise ValueError("transition table must be two-dimensional")
        A = alphabet_size
        rows = table.shape[0]
        order = max(1, round(np.log(rows) / np.log(A))) if rows > 1 else 1
        if A**order != rows:
            raise ValueError(
                f"row count {rows} is not a power of the alphabet size {A}"
            )
        return cls(kind="markov", alphabet_size=A, order=order, transition_table=table)

    @classmethod
    def periodic(cls, pattern, alphabet_size: int | None = None) -> "ProcessSpec":
        """Deterministic tiling of a fixed symbol pattern."""
        pattern = tuple(int(s) for s in pattern)
        if alphabet_size is None:
            alphabet_size = max(2, max(pattern, default=0) + 1)
        return cls(kind="periodic", alphabet_size=alphabet_size, pattern=pattern)

    @classmethod
    def constant(cls, symbol: int = 0, alphabet_size: int = 2) -> "ProcessSpec":
        """A single symbol repeated forever: a period of one symbol."""
        return cls.periodic([symbol], alphabet_size)


def symmetric_binary_markov(flip_probability: float) -> ProcessSpec:
    """Order-1 binary chain that flips its previous symbol with given odds.

    The stationary distribution is uniform by symmetry, so the entropy rate
    is exactly the binary entropy of the flip probability while the marginal
    symbol entropy stays at 1 bit.  A flip probability of 0 is rejected with
    :class:`DegenerateProcessError`: each symbol then repeats forever, and
    the chain has no unique stationary distribution.
    """
    eps = float(flip_probability)
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"flip probability must lie in [0, 1], got {eps}")
    return ProcessSpec.markov([[1.0 - eps, eps], [eps, 1.0 - eps]])


def generate(spec: ProcessSpec, n: int, seed: int) -> SymbolSequence:
    """Draw a length-n realization, deterministic in (spec, n, seed).

    Markov runs start from a composite state drawn from the stationary
    distribution that the spec solved once when it was built, so the
    sample is stationary from its first symbol and needs no burn-in.
    Randomness comes from numpy's ``default_rng`` (PCG64) seeded with
    ``seed``.  Bernoulli and Markov sampling draw their
    uniforms in fixed-size chunks from that one stream, which yields the
    same doubles as a single draw of all of them, and write each chunk's
    symbols straight into an output in the sequence's storage type (one
    byte per symbol up to A = 256).  A chain with two states (binary,
    order 1, as every ``markov:eps`` spec) picks a chunk's symbols with a
    few numpy passes; larger chains pick them one draw at a time.  Both
    give the symbols of the one-draw-at-a-time rule.  Sampling needs that
    output plus one chunk of draws (under 3 MiB), and the returned
    sequence's validated copy briefly doubles the output.
    """
    if n < 1:
        raise ValueError(f"sequence length must be at least 1, got {n}")
    alphabet = Alphabet(spec.alphabet_size)
    if spec.kind == "periodic":
        pattern = np.array(spec.pattern, dtype=_symbol_dtype(spec.alphabet_size))
        reps = -(-n // pattern.size)
        return SymbolSequence(alphabet, np.tile(pattern, reps)[:n])
    rng = np.random.default_rng(seed)
    if spec.kind == "bernoulli":
        out = np.empty(n, dtype=np.bool_)
        for start in range(0, n, _DRAW_CHUNK):
            stop = min(start + _DRAW_CHUNK, n)
            np.less(rng.random(stop - start), spec.p, out=out[start:stop])
        return SymbolSequence(alphabet, out)
    return SymbolSequence(alphabet, _sample_markov(spec, n, rng))


def _sample_markov(spec: ProcessSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    A = spec.alphabet_size
    m = spec.order
    table = spec.transition_table
    cum_pi = np.cumsum(spec._stationary)
    state = min(int(np.searchsorted(cum_pi, rng.random(), side="right")), len(cum_pi) - 1)
    out = np.empty(n, dtype=_symbol_dtype(A))
    out[: min(n, m)] = [(state // A ** (m - 1 - i)) % A for i in range(m)][:n]
    if table.shape == (2, 2):
        # Two states, order 1: the loop below picks symbol 1 from state s
        # exactly when u >= table[s, 0], and never if table[s, 1] is 0 (an
        # infinite cut).  A draw that picks the same symbol from both states
        # resets the chain to it; any other draw keeps or flips the state.
        # So each symbol is the last reset's value XOR the parity of the
        # flips since, and a chunk starts from a reset to the symbol before
        # it.  Same draws, same symbols, and no Python object per draw.
        cut = np.where(table[:, 1] > 0, table[:, 0], np.inf)
        positions = np.arange(1, _DRAW_CHUNK + 1)
        for start in range(1, n, _DRAW_CHUNK):
            stop = min(start + _DRAW_CHUNK, n)
            u = rng.random(stop - start)
            from0 = u >= cut[0]
            from1 = u >= cut[1]
            parity = np.bitwise_xor.accumulate(from0 > from1)
            # Reset values XOR the parity there, slot 0 the carried-in
            # symbol; ``reset`` points each draw at its last reset's slot.
            base = np.empty(u.size + 1, dtype=np.bool_)
            base[0] = out[start - 1]
            np.bitwise_xor(from0, parity, out=base[1:])
            reset = np.where(from0 == from1, positions[: u.size], 0)
            np.maximum.accumulate(reset, out=reset)
            np.bitwise_xor(base[reset], parity, out=out[start:stop])
        return out
    # Each row bisects its cumulative sums up to, not including, the one at
    # its last positive entry.  Every draw then maps to a symbol of positive
    # probability: one at or past the row's total (1.0 up to rounding) lands
    # on that last entry, not on a zero-probability symbol after it.
    last = A - 1 - np.argmax(table[:, ::-1] > 0, axis=1)
    cuts = [row[:k] for row, k in zip(np.cumsum(table, axis=1).tolist(), last.tolist())]
    keep = A ** (m - 1)
    shifted = [(s % keep) * A for s in range(len(cuts))]
    for start in range(m, n, _DRAW_CHUNK):
        stop = min(start + _DRAW_CHUNK, n)
        symbols = []
        append = symbols.append
        for u in rng.random(stop - start).tolist():
            x = bisect_right(cuts[state], u)
            append(x)
            state = shifted[state] + x
        out[start:stop] = symbols
    return out
