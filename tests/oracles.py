"""Oracles shared by the tests, independent of the library code under test:
exact Fraction products for Dirichlet-multinomial scores, and an mpmath
gamma ratio at the caller's working precision."""

from fractions import Fraction

import mpmath


def rising(b: Fraction, m: int) -> Fraction:
    """The rising factorial b (b + 1) ... (b + m - 1), exactly."""
    out = Fraction(1)
    for k in range(m):
        out *= b + k
    return out


def bd_oracle(cell_counts, cell_weights) -> Fraction:
    """Product-formula score over a full declared cell list, exactly."""
    n = sum(cell_counts)
    total = sum(cell_weights, Fraction(0))
    q = Fraction(1)
    for c, w in zip(cell_counts, cell_weights):
        q *= rising(w, c)
    return q / rising(total, n)


def mp_log_gamma_ratio(c, b):
    """ln G(c + b) - ln G(b) in mpmath; a float b converts exactly."""
    b = mpmath.mpf(b)
    return mpmath.loggamma(c + b) - mpmath.loggamma(b)
