"""Gamma-kernel tests against a high-precision oracle (mpmath)."""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdscore import numerics
from bdscore.numerics import (
    EXACT_RATIO_THRESHOLD,
    log_base_divisor,
    log_gamma_ratio,
)
from oracles import mp_log_gamma_ratio, one_array_log_gamma_ratio

mpmath.mp.dps = 50


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
            direct = math.lgamma(n + b) - math.lgamma(b)
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
        want = float(mp_log_gamma_ratio(n, b))
        assert math.isclose(log_gamma_ratio(n, b), want, rel_tol=1e-12)


@pytest.mark.parametrize("n", [2_000_000, 10_000_000])
@pytest.mark.parametrize("b", [1e-9, 0.5, 1e3, 1e6, 1e9, 1.1e12, 2.0**64])
def test_ratio_past_threshold_against_oracle(n, b):
    # past the threshold a plain lgamma difference cancels once b is large
    # (relative error 1.3e-3 at b = 2**64, n = 2e6); the answer must not
    assert n > EXACT_RATIO_THRESHOLD
    want = mp_log_gamma_ratio(n, b)
    got = log_gamma_ratio(n, b)
    assert abs((mpmath.mpf(got) - want) / want) <= 1e-15


def test_ratio_threshold_fallback(monkeypatch):
    # past the threshold the lgamma difference takes over; forcing a tiny
    # threshold must agree with the summed form to float accuracy
    n, b = 5_000, 0.3
    summed = log_gamma_ratio(n, b)
    assert EXACT_RATIO_THRESHOLD == 10**6
    monkeypatch.setattr(numerics, "EXACT_RATIO_THRESHOLD", 10)
    fallback = numerics._memo_log_gamma_ratio.__wrapped__(n, b)
    assert math.isclose(summed, fallback, rel_tol=1e-11)


_CHUNK = numerics._SUM_CHUNK


@pytest.mark.parametrize("n", [65, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5,
                               10**5 + 3, 999_999, 10**6])
@pytest.mark.parametrize("b", [1e-9, 1e-3, 0.25, 1 / 3, 0.5, 1.0, 2.5, 999.9, 1e3, 12345.678])
def test_streamed_exact_sum_is_the_one_array_sum(n, b):
    # one fsum over every chunk's terms rounds once, as the one-array sum
    # did; a rounded sum per chunk, or numpy's pairwise sum, would not
    assert n <= EXACT_RATIO_THRESHOLD
    assert numerics._memo_log_gamma_ratio.__wrapped__(n, b) == one_array_log_gamma_ratio(n, b)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(65, 4 * _CHUNK + 3),
       b=st.floats(1e-12, 1e6, allow_nan=False, allow_infinity=False))
def test_property_streamed_exact_sum_is_the_one_array_sum(n, b):
    assert numerics._memo_log_gamma_ratio.__wrapped__(n, b) == one_array_log_gamma_ratio(n, b)


def test_exact_sum_memory_does_not_grow_with_the_count():
    # the one-array sum peaked at 38 MB: two 8 MB arrays and a list of a
    # million Python floats; streamed, the peak is one chunk's
    numerics._memo_log_gamma_ratio.cache_clear()
    tracemalloc.start()
    try:
        log_gamma_ratio(10**6, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_ratio_memo_serves_default_threshold_only():
    memo = numerics._memo_log_gamma_ratio
    memo.cache_clear()
    first = log_gamma_ratio(37, 0.0625)
    assert log_gamma_ratio(37, 0.0625) == first
    assert memo.cache_info().hits == 1 and memo.cache_info().currsize == 1
    assert memo.cache_info().currsize == 1
    for bad in [(-1, 0.5), (2.5, 0.5), (3, 0.0)]:
        with pytest.raises(ValueError):
            log_gamma_ratio(*bad)
    assert memo.cache_info().currsize == 1


def test_ratio_validation(monkeypatch):
    with pytest.raises(ValueError):
        log_gamma_ratio(-1, 0.5)
    with pytest.raises(ValueError):
        log_gamma_ratio(2.5, 0.5)
    with pytest.raises(ValueError):
        log_gamma_ratio(3, 0.0)
    with pytest.raises(ValueError):
        log_gamma_ratio(3, -1.0)
    with pytest.raises(ValueError, match="finite"):
        log_gamma_ratio(3, math.inf)
    monkeypatch.setattr(numerics, "EXACT_RATIO_THRESHOLD", 10)
    with pytest.raises(ValueError, match="finite"):
        numerics._memo_log_gamma_ratio.__wrapped__(30, math.inf)


def test_log_base_divisor_forms():
    assert log_base_divisor("e") == 1.0
    assert log_base_divisor(math.e) == 1.0
    assert log_base_divisor(2) == math.log(2.0)
    assert log_base_divisor(2.0) == math.log(2.0)
    assert log_base_divisor("2") == math.log(2.0)
    with pytest.raises(ValueError):
        log_base_divisor("10")
