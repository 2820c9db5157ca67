"""Symbol sequences over explicit alphabets, and digitizers for numeric series.

A :class:`SymbolSequence` is the object every complexity metric consumes.
Numeric recordings enter through :class:`NumericSeries` and are mapped onto a
finite alphabet by one of the digitizers below.  Thresholding at the median
maximizes the empirical symbol entropy of a binary output; quantile cut
points generalize the same idea to larger alphabets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Alphabet",
    "SymbolSequence",
    "NumericSeries",
    "binarize_median",
    "digitize_quantiles",
    "shuffle",
]


@dataclass(frozen=True)
class Alphabet:
    """Finite alphabet; symbols are canonically the integers 0..size-1."""

    size: int

    def __post_init__(self) -> None:
        if int(self.size) != self.size or self.size < 2:
            raise ValueError(f"alphabet size must be an integer >= 2, got {self.size}")
        object.__setattr__(self, "size", int(self.size))


# Symbols stay in the int64 range that bounded them when they were stored as
# int64, so no alphabet calls for a type beyond uint64.
_SYMBOL_LIMIT = 2**63


def _symbol_dtype(alphabet_size: int) -> np.dtype:
    """Storage type of a sequence's symbols: the smallest unsigned type that
    holds A - 1 (uint8 up to A = 256, uint16 up to 65,536)."""
    return np.min_scalar_type(min(alphabet_size, _SYMBOL_LIMIT) - 1)


@dataclass(frozen=True, eq=False)
class SymbolSequence:
    """Immutable run of symbol indices drawn from a fixed alphabet.

    ``data`` is a read-only array in the smallest unsigned type that holds
    A - 1: one byte per symbol up to A = 256, two up to A = 65,536.  Its
    arithmetic wraps in that type, so code that computes with the symbols
    (sums, q-gram codes) casts them to a wider type first.  The constructor
    accepts any one-dimensional integer-valued input; integer and bool
    arrays are checked in their own type, anything else goes through int64
    as ``np.array(data, dtype=np.int64)`` converts it (floats truncate).
    The stored array is always the constructor's own copy.
    """

    alphabet: Alphabet
    data: np.ndarray

    def __post_init__(self) -> None:
        arr = self.data
        if not (isinstance(arr, np.ndarray) and arr.dtype.kind in "biu"):
            arr = np.array(arr, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("symbol data must be one-dimensional")
        if arr.size == 0:
            raise ValueError("symbol sequence must contain at least one symbol")
        if int(arr.min()) < 0 or int(arr.max()) >= min(self.alphabet.size, _SYMBOL_LIMIT):
            raise ValueError(
                f"symbols must lie in 0..{self.alphabet.size - 1} "
                f"for an alphabet of size {self.alphabet.size}"
            )
        arr = arr.astype(_symbol_dtype(self.alphabet.size))
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    def __len__(self) -> int:
        return int(self.data.size)

    def __reduce__(self) -> tuple:
        # A pickle carries the stored symbols as they are (one byte each up to
        # A = 256), and unpickling rebuilds the sequence through the
        # validating constructor.
        return SymbolSequence, (self.alphabet, self.data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolSequence):
            return NotImplemented
        return self.alphabet == other.alphabet and np.array_equal(self.data, other.data)

    def __repr__(self) -> str:
        head = ",".join(str(s) for s in self.data[:16])
        tail = ",..." if len(self) > 16 else ""
        return f"SymbolSequence(A={self.alphabet.size}, n={len(self)}, [{head}{tail}])"


@dataclass(frozen=True, eq=False)
class NumericSeries:
    """Real-valued samples awaiting digitization.

    NaN samples are rejected outright: silently dropping them would change
    the sequence length and break comparability across recordings.
    """

    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.samples, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if arr.size == 0:
            raise ValueError("numeric series contains no samples")
        if np.isnan(arr).any():
            raise ValueError("numeric series contains NaN samples")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return int(self.samples.size)


def _quantiles(samples: np.ndarray, probs):
    """``np.quantile``'s linear cut points, also across more than the float64 range.

    The interpolation subtracts one order statistic from the next, which
    overflows across such a span.  The cuts are then taken on the halved
    samples and doubled: halving is exact down to magnitudes of 2**-1021,
    so only cuts between two samples smaller than that can move, by one
    unit in the last place.
    """
    if math.isinf(float(samples.max()) - float(samples.min())):
        return np.quantile(samples / 2, probs) * 2
    return np.quantile(samples, probs)


def binarize_median(series: NumericSeries) -> SymbolSequence:
    """Binarize a numeric series at its median.

    Samples strictly above the median map to 1, everything else (including
    exact ties) to 0.  The median is the midpoint of the sorted samples
    (halfway between the two central order statistics for even lengths), so
    an even number of distinct samples splits exactly 50/50 and the output
    attains the maximal empirical symbol entropy of 1 bit.  It is the 0.5
    cut point of :func:`digitize_quantiles`, which interpolates without
    overflow for samples near the float64 limit of either sign.
    """
    med = _quantiles(series.samples, 0.5)
    return SymbolSequence(Alphabet(2), series.samples > med)


def digitize_quantiles(series: NumericSeries, levels: int) -> SymbolSequence:
    """Discretize a numeric series into ``levels`` near-equally-populated bins.

    Cut points are the k/levels empirical quantiles for k = 1..levels-1
    (linear interpolation between order statistics, as ``np.quantile``
    takes them, also where the samples span more than the float64 range).
    A sample's symbol is the number of cut points strictly below it, i.e.
    bin k covers the half-open interval (q_k, q_{k+1}] and the lowest bin
    is closed below.
    ``levels=2`` reproduces :func:`binarize_median`.
    """
    if levels < 2:
        raise ValueError(f"levels must be at least 2, got {levels}")
    cuts = _quantiles(series.samples, np.arange(1, levels) / levels)
    symbols = np.searchsorted(cuts, series.samples, side="left")
    return SymbolSequence(Alphabet(levels), symbols)


def shuffle(seq: SymbolSequence, seed: int | np.random.SeedSequence) -> SymbolSequence:
    """Uniformly permute a sequence with a seed-determined generator.

    numpy's ``default_rng`` (PCG64 bit generator) runs a Fisher-Yates
    shuffle in place on the new sequence's own validated copy of the
    symbol data, the one copy this makes.  ``Generator.permutation`` is
    defined as copy-then-shuffle and draws the same swaps for the data as
    for the index range 0..n-1, so the output equals
    ``seq.data[default_rng(seed).permutation(n)]``.  Identical (seq, seed)
    pairs give identical output on every run and platform; length and
    symbol multiset are exactly preserved.
    """
    out = SymbolSequence(seq.alphabet, seq.data)
    data = out.data
    data.flags.writeable = True
    np.random.default_rng(seed).shuffle(data)
    data.flags.writeable = False
    return out
