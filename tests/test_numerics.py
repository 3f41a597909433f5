"""Gamma-kernel tests against a high-precision oracle (mpmath)."""

import math
from fractions import Fraction

import mpmath
import pytest

from bdscore import numerics
from bdscore.numerics import (
    EXACT_RATIO_THRESHOLD,
    log_base_divisor,
    log_gamma,
    log_gamma_ratio,
)

mpmath.mp.dps = 50


def mp_log_gamma(z: float) -> float:
    return float(mpmath.loggamma(mpmath.mpf(z)))


def test_log_gamma_known_points():
    assert log_gamma(1.0) == 0.0
    assert math.isclose(log_gamma(6.0), math.log(120.0), rel_tol=0, abs_tol=1e-12)
    assert math.isclose(log_gamma(0.5), math.log(math.pi) / 2, rel_tol=0, abs_tol=1e-12)


def test_log_gamma_against_oracle_grid():
    # spec'd accuracy: relative error <= 1e-12 across the working range
    for z in [1e-3, 0.05, 0.25, 0.5, 1.5, 3.0, 10.0, 123.456, 1e4, 1e6, 1e7]:
        got = log_gamma(z)
        want = mp_log_gamma(z)
        err = abs(got - want) / max(1.0, abs(want))
        assert err <= 1e-12, f"z={z}: {got} vs {want}"


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-2.5)


def test_ratio_empty_product():
    for b in (0.0625, 0.5, 1.0, 7.3):
        assert log_gamma_ratio(0, b) == 0.0


def test_ratio_exact_fractions():
    # (3, 1/8): (1/8)(9/8)(17/8) = 153/512
    want = math.log(Fraction(153, 512))
    assert math.isclose(log_gamma_ratio(3, 0.125), want, abs_tol=1e-14)
    # (5, 1/2): (1/2)(3/2)(5/2)(7/2)(9/2) = 945/32
    want = math.log(Fraction(945, 32))
    assert math.isclose(log_gamma_ratio(5, 0.5), want, abs_tol=1e-13)


def test_ratio_matches_lgamma_difference():
    for b in (0.0625, 0.125, 0.25, 0.5, 1.0, 5.0):
        for n in range(201):
            direct = log_gamma(n + b) - log_gamma(b)
            assert abs(log_gamma_ratio(n, b) - direct) <= 1e-9


def test_ratio_recurrence():
    # adding one row multiplies the Gamma ratio by (n + b)
    for b in (0.25, 0.5, 2.0):
        acc = 0.0
        for n in range(120):
            acc_next = log_gamma_ratio(n + 1, b)
            step = acc_next - log_gamma_ratio(n, b)
            assert abs(step - math.log(n + b)) <= 1e-12
            acc = acc_next
        assert math.isfinite(acc)


def test_ratio_oracle_large_n():
    for n, b in [(10_000, 0.125), (250_000, 0.5)]:
        want = float(mpmath.loggamma(n + mpmath.mpf(b)) - mpmath.loggamma(mpmath.mpf(b)))
        assert math.isclose(log_gamma_ratio(n, b), want, rel_tol=1e-12)


def test_ratio_threshold_fallback():
    # past the threshold the lgamma difference takes over; forcing a tiny
    # threshold must agree with the summed form to float accuracy
    n, b = 5_000, 0.3
    summed = log_gamma_ratio(n, b)
    fallback = log_gamma_ratio(n, b, exact_threshold=10)
    assert math.isclose(summed, fallback, rel_tol=1e-11)
    assert EXACT_RATIO_THRESHOLD == 10**6


def test_ratio_memo_serves_default_threshold_only():
    memo = numerics._memo_log_gamma_ratio
    memo.cache_clear()
    first = log_gamma_ratio(37, 0.0625)
    assert log_gamma_ratio(37, 0.0625) == first
    assert memo.cache_info().hits == 1 and memo.cache_info().currsize == 1
    assert math.isclose(log_gamma_ratio(37, 0.0625, exact_threshold=10), first, rel_tol=1e-12)
    assert memo.cache_info().currsize == 1
    for bad in [(-1, 0.5), (2.5, 0.5), (3, 0.0)]:
        with pytest.raises(ValueError):
            log_gamma_ratio(*bad)
    assert memo.cache_info().currsize == 1


def test_ratio_validation():
    with pytest.raises(ValueError):
        log_gamma_ratio(-1, 0.5)
    with pytest.raises(ValueError):
        log_gamma_ratio(2.5, 0.5)
    with pytest.raises(ValueError):
        log_gamma_ratio(3, 0.0)
    with pytest.raises(ValueError):
        log_gamma_ratio(3, -1.0)


def test_log_base_divisor_forms():
    assert log_base_divisor("e") == 1.0
    assert log_base_divisor(math.e) == 1.0
    assert log_base_divisor(2) == math.log(2.0)
    assert log_base_divisor(2.0) == math.log(2.0)
    assert log_base_divisor("2") == math.log(2.0)
    with pytest.raises(ValueError):
        log_base_divisor("10")
