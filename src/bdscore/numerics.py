"""Log-domain gamma kernel shared by every score computation.

Every score in this package is a natural-log value assembled from one
primitive, ``log_gamma_ratio``, which evaluates

    ln Gamma(n + b) - ln Gamma(b)  =  sum_{k=0}^{n-1} ln(k + b)

by summing the rising product term by term.  For the small counts that
dominate score arithmetic this is exact to roughly a unit in the last
place, whereas subtracting two large ``lgamma`` values loses digits to
cancellation precisely where the scores are most sensitive (fractional
offsets b such as 1/2 or an equivalent sample size split over many
cells).  Long sums stream their terms into one exactly rounded ``fsum``
a fixed-size chunk at a time, so a count of a million takes the same
memory as a count of a thousand.  Base-2 numbers appear only at
reporting boundaries; nothing internal is ever stored in any base but e.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

__all__ = [
    "EXACT_RATIO_THRESHOLD",
    "log_base_divisor",
    "log_gamma_ratio",
]

# Beyond this many terms the summed product buys no accuracy worth its
# linear cost, so a closed form (lgamma or Stirling) is used instead.
# Below it the cost is time only: the sum streams in chunks of
# ``_SUM_CHUNK`` terms, so its memory does not grow with the count.
EXACT_RATIO_THRESHOLD = 1_000_000

# Terms per chunk of a streamed exact sum, and draws per chunk of the
# residuals sweep's stream: 2**14 float64 are 128 kB, about 0.5 MB as Python
# floats, and 2**12 to 2**14 ran fastest on a 10**6-term sum (larger chunks
# cost memory, smaller ones numpy's per-call overhead).  Chunks feed one
# ``fsum`` or one count, so the chunk size cannot change a result.
_SUM_CHUNK = 1 << 14


def log_gamma_ratio(n: int, b: float) -> float:
    """ln(Gamma(n + b) / Gamma(b)) for an integer count n >= 0 and b > 0.

    Uses the exactly rounded sum of ln(k + b) for k = 0 .. n-1 while n is
    at most ``EXACT_RATIO_THRESHOLD`` and a closed form beyond that: a
    difference of two ``lgamma`` calls, or of Stirling series once
    b >= 1000, where the first would cancel.  Served from a bounded memo.
    """
    return _memo_log_gamma_ratio(n, b)


# The (count, offset) pairs of one dataset's tables repeat from subset to
# subset: counts are small integers, and every prior weight is a function
# of the subset's arity.  Measured occupancy after one pass of each
# benchmark workload: 1,201 and 1,589 entries on 12 binary columns x 1000
# rows (learn at seeds 1 and 13), about 1,240 on score/citest/audit over
# 200k rows, and 4,049 on the seeded sweeps, which nearly fill it.  A full
# memo holds 0.8 MB.  Invalid arguments raise inside and are never stored.
_MEMO_ENTRIES = 4096


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _memo_log_gamma_ratio(n: int, b: float) -> float:
    if n != int(n) or n < 0:
        raise ValueError(f"count must be a nonnegative integer, got {n!r}")
    if not b > 0.0:
        raise ValueError(f"offset must be positive, got {b!r}")
    if not math.isfinite(b):
        raise ValueError(f"offset must be finite, got {b!r}")
    n = int(n)
    if n == 0:
        return 0.0
    if n > EXACT_RATIO_THRESHOLD:
        if b < 1e3:
            return math.lgamma(n + b) - math.lgamma(b)
        # Stirling's series, differenced through log1p: no cancellation at large b
        z = n + b
        return (n * math.log(b) + (z - 0.5) * math.log1p(n / b) - n
                + (1 / (12 * z) - 1 / (12 * b)) - (1 / (360 * z**3) - 1 / (360 * b**3)))
    if n <= 64:
        return math.fsum(math.log(k + b) for k in range(n))
    chunks = (np.log(np.arange(s, min(s + _SUM_CHUNK, n), dtype=np.float64) + b).tolist()
              for s in range(0, n, _SUM_CHUNK))
    return math.fsum(itertools.chain.from_iterable(chunks))


def log_base_divisor(base) -> float:
    """Divisor converting a natural-log value to the requested base.

    Accepts 2 (or "2") and "e" (or ``math.e``); anything else is an error.
    """
    if base in (2, 2.0, "2"):
        return math.log(2.0)
    if base == "e" or base == math.e:
        return 1.0
    raise ValueError(f"log base must be 2 or 'e', got {base!r}")
