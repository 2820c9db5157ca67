"""Symbol sequences over explicit alphabets, and digitizers for numeric series.

A :class:`SymbolSequence` is the object every complexity metric consumes.
Numeric recordings enter through :class:`NumericSeries` and are mapped onto a
finite alphabet by the quantile digitizer below.  Two levels threshold at
the median, which maximizes the empirical symbol entropy of a binary output;
more levels generalize the same idea to larger alphabets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Alphabet",
    "SymbolSequence",
    "NumericSeries",
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

    def __setstate__(self, state: dict) -> None:
        # Through the constructor, so an unpickled alphabet is checked too.
        self.__init__(**state)


# Symbols stay in the int64 range that bounded them when they were stored as
# int64, so no alphabet calls for a type beyond uint64.
_SYMBOL_LIMIT = 2**63


def _symbol_dtype(alphabet_size: int) -> np.dtype:
    """Storage type of a sequence's symbols: the smallest unsigned type that
    holds A - 1 (uint8 up to A = 256, uint16 up to 65,536)."""
    return np.min_scalar_type(min(alphabet_size, _SYMBOL_LIMIT) - 1)


def _check_symbols(alphabet: Alphabet, arr: np.ndarray) -> None:
    """Raise ValueError unless ``arr`` is a one-dimensional, non-empty run of
    symbols in 0..A-1."""
    if arr.ndim != 1:
        raise ValueError("symbol data must be one-dimensional")
    if arr.size == 0:
        raise ValueError("symbol sequence must contain at least one symbol")
    if int(arr.min()) < 0 or int(arr.max()) >= min(alphabet.size, _SYMBOL_LIMIT):
        raise ValueError(
            f"symbols must lie in 0..{alphabet.size - 1} "
            f"for an alphabet of size {alphabet.size}"
        )


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
    The constructor stores its own copy, so the caller's array stays the
    caller's.  Arrays the package builds itself, and unpickled ones, are
    kept as they are, without a copy (see :meth:`_own`).  A pickle holds
    the alphabet and the stored array, which pickle protocol 5 can carry
    out of band.
    """

    alphabet: Alphabet
    data: np.ndarray

    def __post_init__(self) -> None:
        arr = self.data
        if not (isinstance(arr, np.ndarray) and arr.dtype.kind in "biu"):
            arr = np.array(arr, dtype=np.int64)
        _check_symbols(self.alphabet, arr)
        arr = arr.astype(_symbol_dtype(self.alphabet.size))
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @classmethod
    def _own(cls, alphabet: Alphabet, data: np.ndarray) -> SymbolSequence:
        """Keep ``data`` as the sequence's symbols, without a copy or a scan.

        For arrays the package has just built: one-dimensional, non-empty,
        in the storage type, every symbol below A, and referenced by no one
        else who writes to it.  ``data`` is made read-only.
        """
        assert data.ndim == 1 and data.dtype == _symbol_dtype(alphabet.size)
        data.flags.writeable = False
        seq = object.__new__(cls)
        object.__setattr__(seq, "alphabet", alphabet)
        object.__setattr__(seq, "data", data)
        return seq

    def __len__(self) -> int:
        return int(self.data.size)

    def __reduce__(self) -> tuple:
        # The stored array as it is, in band or, at protocol 5 with a buffer
        # callback, out of band; unpickling checks it and keeps what it
        # decoded without a copy.
        return _unpickle_sequence, (self.alphabet, self.data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolSequence):
            return NotImplemented
        return self.alphabet == other.alphabet and np.array_equal(self.data, other.data)

    def __repr__(self) -> str:
        head = ",".join(str(s) for s in self.data[:16])
        tail = ",..." if len(self) > 16 else ""
        return f"SymbolSequence(A={self.alphabet.size}, n={len(self)}, [{head}{tail}])"


def _unpickle_sequence(alphabet: Alphabet, data: np.ndarray) -> SymbolSequence:
    """Rebuild a pickled sequence from its stored array, which must be in the
    storage type; the symbols pass the constructor's checks and are kept
    without a copy."""
    if not (isinstance(alphabet, Alphabet) and isinstance(data, np.ndarray)):
        raise ValueError("pickled symbol sequence needs an Alphabet and an array")
    if data.dtype != _symbol_dtype(alphabet.size):
        raise ValueError(
            f"pickled symbols must be stored as {_symbol_dtype(alphabet.size)} "
            f"for an alphabet of size {alphabet.size}, not {data.dtype}"
        )
    _check_symbols(alphabet, data)
    return SymbolSequence._own(alphabet, data)


@dataclass(frozen=True, eq=False)
class NumericSeries:
    """Real-valued samples awaiting digitization, stored as read-only float64.

    NaN samples are rejected outright: silently dropping them would change
    the sequence length and break comparability across recordings.  The
    constructor stores its own copy; arrays the package builds itself are
    kept as they are (see :meth:`_own`).
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

    @classmethod
    def _own(cls, samples: np.ndarray) -> NumericSeries:
        """Keep ``samples`` without a copy or a scan: a one-dimensional,
        non-empty float64 array without NaN that the package has just built
        and no one else writes to.  ``samples`` is made read-only."""
        assert samples.ndim == 1 and samples.dtype == np.float64
        samples.flags.writeable = False
        series = object.__new__(cls)
        object.__setattr__(series, "samples", samples)
        return series

    def __len__(self) -> int:
        return int(self.samples.size)


def digitize_quantiles(series: NumericSeries, levels: int) -> SymbolSequence:
    """Discretize a numeric series into ``levels`` near-equally-populated bins.

    Cut points are the k/levels empirical quantiles for k = 1..levels-1
    (linear interpolation between order statistics, as ``np.quantile``
    takes them).  A sample's symbol is the number of cut points strictly
    below it, i.e. bin k covers the half-open interval (q_k, q_{k+1}] and
    the lowest bin is closed below.  ``levels=2`` thresholds at the median:
    samples strictly above it map to 1, everything else (exact ties
    included) to 0, so n distinct samples put n // 2 in bin 1.

    Each cut lies at or above the lower of its two order statistics and
    below the upper one unless they are equal, and no sample lies strictly
    between them, so exactly the samples above the lower one lie above the
    cut.  The cuts are therefore taken as those lower order statistics
    (``method="lower"``): exact, where a rounded interpolation can land on
    the upper sample (1 + 2**-52 and 1 + 2**-51 would both map to 0) or
    overflow across more than the float64 range.

    Symbols lie in 0..levels-1 by construction, so they are cast once to
    the storage type and kept without a range check or a further copy.
    """
    if levels < 2:
        raise ValueError(f"levels must be at least 2, got {levels}")
    cuts = np.quantile(series.samples, np.arange(1, levels) / levels, method="lower")
    symbols = np.searchsorted(cuts, series.samples, side="left")
    return SymbolSequence._own(Alphabet(levels), symbols.astype(_symbol_dtype(levels)))


def shuffle(seq: SymbolSequence, seed: int | np.random.SeedSequence) -> SymbolSequence:
    """Uniformly permute a sequence with a seed-determined generator.

    numpy's ``default_rng`` (PCG64 bit generator) runs a Fisher-Yates
    shuffle in place on one copy of the symbol data, which the new
    sequence then keeps: the one copy this makes, and no range check.
    ``Generator.permutation`` is defined as copy-then-shuffle and draws
    the same swaps for the data as for the index range 0..n-1, so the
    output equals ``seq.data[default_rng(seed).permutation(n)]``.
    Identical (seq, seed) pairs give identical output on every run and
    platform; length and symbol multiset are exactly preserved.
    """
    data = seq.data.copy()
    np.random.default_rng(seed).shuffle(data)
    return SymbolSequence._own(seq.alphabet, data)
