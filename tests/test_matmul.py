"""Tests for the exact product of the Monte Carlo step, diffed with Python integers."""

from __future__ import annotations

from math import isqrt

import numpy as np
import pytest

from wlclosure.graph import INT64_MAX
from wlclosure.probabilistic import FLOAT64_EXACT, multiply

from oracles import python_matmul


def _table(rng, n, low, high):
    """An ``n x n`` float64 table of integers drawn from ``low..high``."""
    return rng.integers(low, high, size=(n, n), endpoint=True).astype(np.float64)


def _near_m(rng, n, m):
    """Entries within 1% of ``m`` and one equal to it, so the partial sums of
    a product grow all the way to its bound ``n * m**2``."""
    out = _table(rng, n, m - m // 100, m)
    out[0, 0] = m
    return out


def _assert_exact(a, b, m):
    out = multiply(a, b, m)
    assert out.dtype == np.int64
    expected = python_matmul(a.astype(np.int64).tolist(), b.astype(np.int64).tolist())
    assert out.tolist() == expected


def test_frozen_2x2_product():
    a = np.array([[3.0, 5.0], [5.0, 3.0]])
    b = np.array([[2.0, 7.0], [7.0, 2.0]])
    assert multiply(a, b, 10).tolist() == [[41, 31], [31, 41]]


@pytest.mark.parametrize("n", [2, 8, 32, 128])
def test_bound_exactly_two_to_the_53_and_just_above(n):
    """``n * m**2 == 2**53`` is one GEMM; ``m + 1`` is the smallest bound above
    it and splits the left factor into digits."""
    m = isqrt(FLOAT64_EXACT // n)
    assert n * m * m == FLOAT64_EXACT
    rng = np.random.default_rng(n)
    for m_case in (m, m + 1):
        _assert_exact(_near_m(rng, n, m_case), _near_m(rng, n, m_case), m_case)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 130])
def test_int64_edge_with_every_entry_m(n):
    """The largest ``m`` the ``n * m**2`` guard admits, every entry ``m``:
    each product entry is the bound itself."""
    m = isqrt(INT64_MAX // n)
    assert n * m * m <= INT64_MAX < n * (m + 1) ** 2
    full = np.full((n, n), float(m))
    out = multiply(full, full, m)
    assert out.dtype == np.int64
    assert (out == n * m * m).all()
    if n <= 3:
        _assert_exact(full, full, m)


@pytest.mark.parametrize("n, bits", [(3, 26), (9, 25), (130, 23)])
def test_lower_digits_at_their_largest(n, bits):
    """Left entries ``m = 2**bits - 1``: every digit but the top one is
    ``2**width - 1``, so the digit GEMMs reach their bound ``n * m * 2**width``
    and one width more would not be exact."""
    m = 2**bits - 1
    assert n * m * m > FLOAT64_EXACT
    _assert_exact(np.full((n, n), float(m)), _near_m(np.random.default_rng(bits), n, m), m)


@pytest.mark.parametrize("m", [1000, 2**26 + 3, 2**31 - 1])
def test_draws_below_m(m):
    """The digit split is planned from ``m``, not from the drawn values, so
    tables whose maxima lie far below ``m`` still multiply exactly."""
    rng = np.random.default_rng(m)
    n = 40
    _assert_exact(_table(rng, n, 1, max(2, m // 1000)), _table(rng, n, 1, m // 7), m)


@pytest.mark.parametrize("m", [10**6, 2**25 + 1])
def test_130_rows_span_several_cast_blocks(m):
    """Rows are cast to int64 in blocks of 64: 130 rows end in a partial block,
    on the one-GEMM path (``m = 10**6``) and the digit path."""
    rng = np.random.default_rng(130)
    _assert_exact(_table(rng, 130, 1, m), _near_m(rng, 130, m), m)


@pytest.mark.parametrize("seed", range(6))
def test_matches_python_oracle(seed):
    rng = np.random.default_rng(1800 + seed)
    n = int(rng.integers(1, 12))
    m = int(rng.integers(2, 2**31))
    _assert_exact(_table(rng, n, 1, m), _table(rng, n, 1, m), m)
