"""Tests for the exact integer matrix product."""

from __future__ import annotations

import numpy as np
import pytest

from wlclosure import InputError, OverflowGuardError, multiply

from oracles import python_matmul


def test_identity_and_zero():
    a = np.arange(1, 10, dtype=np.int64).reshape(3, 3)
    eye = np.eye(3, dtype=np.int64)
    zero = np.zeros((3, 3), dtype=np.int64)
    assert np.array_equal(multiply(a, eye), a)
    assert np.array_equal(multiply(a, zero), zero)


def test_frozen_2x2_product():
    a = [[5, 3], [3, 5]]
    b = [[7, 2], [2, 7]]
    assert multiply(a, b).tolist() == [[41, 31], [31, 41]]


def _near_bound(rng, shape, limit, signed_rows):
    """Entries within 1% of ``limit`` with ``max|entry| == limit``.  Signs are
    fixed per row (or all positive), so partial sums of a product grow all the
    way to its magnitude bound instead of cancelling."""
    out = rng.integers(limit - limit // 100, limit, size=shape, dtype=np.int64, endpoint=True)
    out[0, 0] = limit
    if signed_rows:
        out *= rng.choice(np.array([-1, 1], dtype=np.int64), size=(shape[0], 1))
    return out


@pytest.mark.parametrize("shape", [(1, 1, 1), (5, 7, 3), (64, 64, 64), (65, 100, 33), (130, 64, 129)])
def test_backends_bit_identical(shape):
    """Bit-identical to Python integers for small entries and for magnitude
    bounds ``k * max|a| * max|b|`` at and just above 2**53, where one float64
    GEMM gives way to the limb split of the left or the right factor."""
    rows, inner, cols = shape
    rng = np.random.default_rng(rows * 1000 + inner)
    a = rng.integers(-(10**6), 10**6, size=(rows, inner), dtype=np.int64)
    b = rng.integers(-(10**6), 10**6, size=(inner, cols), dtype=np.int64)
    cases = [(a, b)]
    for max_a in (2**27 + 5, 2**13 + 1):  # above the limit, a is split, then b
        at_limit = 2**53 // (inner * max_a)
        for max_b in (at_limit, at_limit + 1):
            cases.append((_near_bound(rng, (rows, inner), max_a, True),
                          _near_bound(rng, (inner, cols), max_b, False)))
    for a, b in cases:
        out = multiply(a, b)
        assert out.dtype == np.int64
        assert out.tolist() == python_matmul(a.tolist(), b.tolist())


@pytest.mark.parametrize("seed", range(6))
def test_matches_python_oracle(seed):
    rng = np.random.default_rng(1800 + seed)
    n = int(rng.integers(1, 12))
    a = rng.integers(-50, 50, size=(n, n), dtype=np.int64)
    b = rng.integers(-50, 50, size=(n, n), dtype=np.int64)
    expected = python_matmul(a.tolist(), b.tolist())
    assert multiply(a, b).tolist() == expected


def test_near_limit_products_are_exact():
    edge = 3037000499  # the largest x with x*x <= int64 max
    out = multiply([[edge]], [[edge]])
    assert out.tolist() == [[edge * edge]]
    wide = 2**31 - 1
    out = multiply([[wide, wide]], [[wide], [wide]])
    assert out.tolist() == [[2 * wide * wide]]


def _padded(a, rows, cols):
    """``a`` in the bottom-right corner of a zero matrix with ``rows`` extra
    rows and ``cols`` extra columns."""
    a = np.asarray(a, dtype=np.int64)
    out = np.zeros((a.shape[0] + rows, a.shape[1] + cols), dtype=np.int64)
    out[rows:, cols:] = a
    return out


@pytest.mark.parametrize("pad", [0, 130], ids=["naive", "blocked"])
def test_overflow_guard_refuses_risky_products(pad):
    """Refused alone (``naive``) and with the risky entries last in operands
    spanning several 64-row blocks (``blocked``); the padding adds outer rows
    and columns only, so the bound is the same."""
    over = 3037000500
    with pytest.raises(OverflowGuardError):
        multiply(_padded([[over]], pad, 0), _padded([[over]], 0, pad))
    wide = 2**31
    with pytest.raises(OverflowGuardError):
        multiply(_padded([[wide, wide]], pad, 0), _padded([[wide], [wide]], 0, pad))


def test_guard_accounts_for_negative_extremes():
    with pytest.raises(OverflowGuardError):
        multiply([[-3037000500]], [[3037000500]])


def test_shape_errors():
    with pytest.raises(InputError):
        multiply(np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(InputError):
        multiply(np.zeros(3, dtype=np.int64), np.zeros((3, 3), dtype=np.int64))


def test_accepts_nested_lists_and_returns_int64():
    out = multiply([[1, 2], [3, 4]], [[5, 6], [7, 8]])
    assert out.dtype == np.int64
    assert out.tolist() == [[19, 22], [43, 50]]

