"""Log-domain gamma kernel shared by every score computation.

Every score in this package is a natural-log value assembled from two
primitives: ``log_gamma`` and ``log_gamma_ratio``.  The ratio primitive
evaluates

    ln Gamma(n + b) - ln Gamma(b)  =  sum_{k=0}^{n-1} ln(k + b)

by summing the rising product term by term.  For the small counts that
dominate score arithmetic this is exact to roughly a unit in the last
place, whereas subtracting two large ``lgamma`` values loses digits to
cancellation precisely where the scores are most sensitive (fractional
offsets b such as 1/2 or an equivalent sample size split over many
cells).  Base-2 numbers appear only at reporting boundaries; nothing
internal is ever stored in any base but e.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "EXACT_RATIO_THRESHOLD",
    "log_base_divisor",
    "log_gamma",
    "log_gamma_ratio",
]

# Beyond this many terms the summed product buys no accuracy worth its
# linear cost, so a difference of two lgamma calls is used instead.
EXACT_RATIO_THRESHOLD = 1_000_000


def log_gamma(z: float) -> float:
    """Natural log of Gamma(z) for z > 0."""
    if not z > 0.0:
        raise ValueError(f"log_gamma is defined for z > 0, got z={z!r}")
    return math.lgamma(z)


def log_gamma_ratio(
    n: int, b: float, *, exact_threshold: int = EXACT_RATIO_THRESHOLD
) -> float:
    """ln(Gamma(n + b) / Gamma(b)) for an integer count n >= 0 and b > 0.

    Uses the exactly rounded sum of ln(k + b) for k = 0 .. n-1 while n is
    at most ``exact_threshold`` and falls back to a difference of two
    ``lgamma`` calls beyond that.  Calls at the default threshold are
    served from a bounded memo; an explicit threshold always evaluates.
    """
    if exact_threshold == EXACT_RATIO_THRESHOLD:
        return _memo_log_gamma_ratio(n, b)
    return _log_gamma_ratio(n, b, exact_threshold)


def _log_gamma_ratio(n: int, b: float, exact_threshold: int) -> float:
    if n != int(n) or n < 0:
        raise ValueError(f"count must be a nonnegative integer, got {n!r}")
    if not b > 0.0:
        raise ValueError(f"offset must be positive, got {b!r}")
    n = int(n)
    if n == 0:
        return 0.0
    if n > exact_threshold:
        return math.lgamma(n + b) - math.lgamma(b)
    if n <= 64:
        return math.fsum(math.log(k + b) for k in range(n))
    terms = np.log(np.arange(n, dtype=np.float64) + b)
    return math.fsum(terms.tolist())


# The (count, offset) pairs of one dataset's tables repeat from subset to
# subset: counts are small integers, and every prior weight is a function
# of the subset's arity (12 binary columns x 1000 rows need about 1200
# pairs under Jeffreys and BDeu together).  A full memo holds 0.8 MB.
# Invalid arguments raise inside and are never stored.
_MEMO_ENTRIES = 4096


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _memo_log_gamma_ratio(n: int, b: float) -> float:
    return _log_gamma_ratio(n, b, EXACT_RATIO_THRESHOLD)


def log_base_divisor(base) -> float:
    """Divisor converting a natural-log value to the requested base.

    Accepts 2 (or "2") and "e" (or ``math.e``); anything else is an error.
    """
    if base in (2, 2.0, "2"):
        return math.log(2.0)
    if base == "e" or base == math.e:
        return 1.0
    raise ValueError(f"log base must be 2 or 'e', got {base!r}")
