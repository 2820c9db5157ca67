"""Seeded synthetic stochastic processes, their laws and their entropy rates.

These generators serve double duty: verification oracles for the
convergence of LZW description length toward the entropy rate, and demo
sources for the command line.  A :class:`ProcessSpec` is checked when it is
built, a Markov one by solving its stationary law once;
:func:`analytic_entropy_rate` gives its exact rate, which the LZW
compression ratio approaches from above.  Every ``generate`` call is a pure
function of (spec, n, seed); periodic specs, constant ones included,
consume no randomness at all.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .entropy import _entropy_bits, h0_bernoulli
from .sequence import _SYMBOL_LIMIT, Alphabet, SymbolSequence, _symbol_dtype

__all__ = [
    "DegenerateProcessError",
    "ProcessSpec",
    "stationary_distribution",
    "analytic_entropy_rate",
    "symmetric_binary_markov",
    "generate",
]

# The one field each kind sets besides ``alphabet_size``; the others stay None.
_PARAMETER = {"bernoulli": "p", "markov": "transition_table", "periodic": "pattern"}

# Composite-state count cap for order-m chains; A**m beyond this makes the
# stationary-distribution computation and sampling tables unreasonable.
_MAX_STATES = 65536

# Random draws are taken this many at a time.  A Markov chunk over more than
# two states lives as Python floats and ints (about 41 B per draw) while its
# symbols are picked, a two-state chunk as numpy arrays (about 38 B per draw:
# the doubles, the int64 positions and reset index, a few bool masks), so
# memory beyond the output stays under 0.33 MiB for any n (tracemalloc,
# 10^6 symbols).  That keeps the two-state sampler from setting the CLI's
# memory peak.  Per-chunk overhead (one generator call, one array store) is
# small at this size: chunks of 2^12 to 2^16 drew at the same speed in the
# per-symbol loop and the two-state sampler, 2^18 or more was slower, and
# Bernoulli draws take about 0.3 ms more per 10^6 symbols than at 2^16.
_DRAW_CHUNK = 1 << 13

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


def _table_shape(table: np.ndarray) -> tuple[int, int]:
    """Alphabet size A and order m of a transition table of A**m rows by A columns."""
    if table.ndim != 2:
        raise ValueError("transition table must be two-dimensional")
    rows, A = table.shape
    if A < 2:
        raise ValueError(f"alphabet size must be at least 2, got {A}")
    order = max(1, round(np.log(rows) / np.log(A))) if rows > 1 else 1
    if A**order != rows:
        raise ValueError(f"row count {rows} is not a power of the alphabet size {A}")
    return A, order


def stationary_distribution(transition_table: np.ndarray) -> np.ndarray:
    """Stationary law of the composite-state chain behind an order-m table.

    ``transition_table`` holds one next-symbol distribution per composite
    state, so its shape, A**m rows by A columns, gives A and the order m.
    The induced state chain shifts the oldest symbol out and the sampled
    one in.  A table of no such shape (A >= 2), with a negative entry or
    with a row whose sum is not within 1e-12 of 1 (a NaN included) raises
    ``ValueError``.  The law is unique exactly when the support graph has
    one closed class, which is checked next; otherwise
    :class:`DegenerateProcessError` is raised.  Damped power iteration
    (averaging each iterate with its successor keeps the fixed points and
    suppresses periodic oscillation) then starts from the uniform law on
    that class.  No mass leaves the class, so transient states get exactly
    0.  The iteration stops at an L1 step of 1e-15, near float64 rounding,
    so a chain that mixes too slowly to settle within 10**6 steps raises
    :class:`DegenerateProcessError` instead of returning a law it has not
    reached.
    """
    table = np.asarray(transition_table, dtype=np.float64)
    A, order = _table_shape(table)
    n_states = len(table)
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


@dataclass(frozen=True, eq=False)
class ProcessSpec:
    """Parameterization of one synthetic process.

    ``kind`` selects the family, which takes one parameter: ``bernoulli``
    ``p``, ``markov`` a row-stochastic ``transition_table`` of A**m rows by
    A columns, ``periodic`` a ``pattern`` (a constant process is a pattern
    of one symbol); a parameter of another kind raises ``ValueError``.
    ``alphabet_size`` is worked out from the parameter: 2 for bernoulli, the
    table's column count for markov, max(2, max(pattern) + 1) for periodic
    unless given; a given size that disagrees with a bernoulli or markov
    process raises ``ValueError``.  ``order`` is the Markov order m, read
    from the table's row count, and None for the other kinds.  The
    classmethods are shorter spellings of the constructor.  A Markov spec
    keeps a read-only copy of its table and the law
    :func:`stationary_distribution` solves from it once, at construction,
    with that function's errors.

    Specs compare and hash by identity, as plain objects do: a spec equals
    itself (and nothing else) and can key a dict or sit in a set, whatever
    arrays it holds.
    """

    kind: str
    alphabet_size: int | None = None
    p: float | None = None
    order: int | None = field(default=None, init=False)
    transition_table: np.ndarray | None = None
    pattern: tuple[int, ...] | None = None
    # Stationary law of a Markov spec's state chain, solved once here and
    # read by sampling and by the analytic entropy rate.
    _stationary: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in _PARAMETER:
            raise ValueError(f"unknown process kind: {self.kind!r}")
        stray = [v for k, v in _PARAMETER.items() if k != self.kind and getattr(self, v) is not None]
        if stray:
            raise ValueError(f"{self.kind} processes take no {', '.join(stray)}")
        if self.kind == "bernoulli":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError(f"bernoulli requires p in [0, 1], got {self.p}")
            A = 2
        elif self.kind == "markov":
            table = np.array(self.transition_table, dtype=np.float64, copy=True)
            A, order = _table_shape(table)
        else:  # periodic
            pattern = tuple(int(s) for s in self.pattern or ())
            if not pattern:
                raise ValueError("periodic pattern must be non-empty")
            A = max(2, max(pattern) + 1) if self.alphabet_size is None else self.alphabet_size
        if self.alphabet_size not in (None, A):
            raise ValueError(f"{self.kind} alphabet size is {A}, not {self.alphabet_size}")
        if A < 2:
            raise ValueError(f"alphabet size must be at least 2, got {A}")
        object.__setattr__(self, "alphabet_size", A)
        if self.kind == "markov":
            if A**order > _MAX_STATES:
                raise ValueError(f"state space {A}**{order} exceeds the {_MAX_STATES} cap")
            pi = stationary_distribution(table)
            table.flags.writeable = pi.flags.writeable = False
            object.__setattr__(self, "transition_table", table)
            object.__setattr__(self, "order", order)
            object.__setattr__(self, "_stationary", pi)
        elif self.kind == "periodic":
            # A symbol sequence holds no symbol past the int64 range.
            if any(not 0 <= s < min(A, _SYMBOL_LIMIT) for s in pattern):
                raise ValueError(f"pattern symbols must lie in 0..{min(A, _SYMBOL_LIMIT) - 1}")
            object.__setattr__(self, "pattern", pattern)

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
        return cls("bernoulli", p=float(p))

    @classmethod
    def markov(cls, transition_table) -> "ProcessSpec":
        """Order-m chain over A symbols, A and m read from the table's shape."""
        return cls("markov", transition_table=transition_table)

    @classmethod
    def periodic(cls, pattern, alphabet_size: int | None = None) -> "ProcessSpec":
        """Deterministic tiling of a fixed symbol pattern."""
        return cls("periodic", alphabet_size, pattern=pattern)


def analytic_entropy_rate(spec: ProcessSpec) -> float:
    """Exact entropy rate in bits/symbol of a generator specification.

    Bernoulli(p) has rate equal to the binary entropy of p; an order-m
    Markov chain has rate sum_s pi(s) * H(row_s) with pi the spec's
    stationary law; periodic processes, constant ones included, are
    deterministic and have rate 0.
    """
    kind = spec.kind
    if kind == "bernoulli":
        return h0_bernoulli(spec.p)
    if kind == "markov":
        row_h = np.array([_entropy_bits(row[row > 0], 1) for row in spec.transition_table])
        return float(spec._stationary @ row_h)
    return 0.0


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

    Markov runs start from a composite state drawn from the spec's
    stationary law, so the sample is stationary from its first symbol and
    needs no burn-in.
    Randomness comes from numpy's ``default_rng`` (PCG64) seeded with
    ``seed``.  Bernoulli and Markov sampling draw their
    uniforms in fixed-size chunks from that one stream, which yields the
    same doubles as a single draw of all of them, and write each chunk's
    symbols straight into an output in the sequence's storage type (one
    byte per symbol up to A = 256).  A chain with two states (binary,
    order 1, as every ``markov:eps`` spec) picks a chunk's symbols with a
    few numpy passes; larger chains pick them one draw at a time.  Both
    give the symbols of the one-draw-at-a-time rule.  Sampling needs that
    output plus one chunk of draws (under 0.33 MiB), and the returned
    sequence keeps the output itself, without a copy or a range check.
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
        return SymbolSequence._own(alphabet, out.view(np.uint8))
    return SymbolSequence._own(alphabet, _sample_markov(spec, n, rng))


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
