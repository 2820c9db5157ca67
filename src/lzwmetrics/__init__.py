"""LZW description-length complexity metrics for symbolic sequences.

The pipeline: digitize a numeric series onto a finite alphabet (or start
from symbols), parse it with LZW, price the code stream in bits, and
normalize that description length into the rho metrics against sequence
length (rho0), a first-order entropy baseline (rho1, analytic and
shuffle-surrogate variants), and the entropy gap (rho2).  Synthetic
generator processes with exact entropy rates back every estimate with an
analytic oracle.
"""

# Each module's __all__ is the one list of its public names.
from .sequence import *
from .lzw import *
from .entropy import *
from .generators import *
from .metrics import *

__version__ = "0.1.0"

__all__ = [
    *sequence.__all__, *lzw.__all__, *entropy.__all__, *generators.__all__, *metrics.__all__,
    "__version__",
]
