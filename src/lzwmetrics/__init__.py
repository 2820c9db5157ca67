"""LZW description-length complexity metrics for symbolic sequences.

The pipeline: digitize a numeric series onto a finite alphabet (or start
from symbols), parse it with LZW, price the code stream in bits, and
normalize that description length into the rho metrics against sequence
length (rho0), a first-order entropy baseline (rho1, analytic and
shuffle-surrogate variants), and the entropy gap (rho2).  Synthetic
generator processes with exact entropy rates back every estimate with an
analytic oracle.
"""

from .entropy import (
    EntropyProfile,
    Q_MAX_LIMIT,
    empirical_block_entropy,
    empirical_h0,
    empirical_hq,
    entropy_profile,
    h0_bernoulli,
)
from .generators import (
    DegenerateProcessError,
    ProcessSpec,
    analytic_entropy_rate,
    generate,
    stationary_distribution,
    symmetric_binary_markov,
)
from .lzw import (
    CorruptStreamError,
    LzwResult,
    decode,
    description_length_bound,
    encode,
)
from .metrics import (
    DESCRIPTION_LENGTH_NOTE,
    H0_DEGENERATE_WARNING,
    MetricReport,
    RHO2_NEGATIVE_WARNING,
    SHORT_SEQUENCE_WARNING,
    analyze,
    rho0,
    rho1_analytic,
    rho1_surrogate,
    rho2,
)
from .sequence import (
    Alphabet,
    NumericSeries,
    SymbolSequence,
    digitize_quantiles,
    shuffle,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "SymbolSequence",
    "NumericSeries",
    "digitize_quantiles",
    "shuffle",
    "LzwResult",
    "CorruptStreamError",
    "encode",
    "decode",
    "description_length_bound",
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
    "ProcessSpec",
    "symmetric_binary_markov",
    "generate",
    "MetricReport",
    "analyze",
    "rho0",
    "rho1_analytic",
    "rho1_surrogate",
    "rho2",
    "SHORT_SEQUENCE_WARNING",
    "RHO2_NEGATIVE_WARNING",
    "H0_DEGENERATE_WARNING",
    "DESCRIPTION_LENGTH_NOTE",
    "__version__",
]
