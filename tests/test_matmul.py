"""Tests for the exact product of the Monte Carlo step, diffed with Python integers."""

from __future__ import annotations

from math import isqrt

import numpy as np
import pytest

from wlclosure import probabilistic
from wlclosure.graph import INT64_MAX, validate
from wlclosure.probabilistic import (
    FLOAT64_EXACT,
    RandomSubstitution,
    RefinementInvariantError,
    SplitMix64Stream,
    _product_layout,
    check_product_bound,
    draw_substitution,
    multiply,
    numeric_product,
)

from oracles import python_matmul, random_grid


def _multiply(a, b, m):
    """``multiply`` of a whole left factor into a fresh product."""
    return multiply(a, b, m, np.empty((len(a), b.shape[1]), dtype=np.int64))


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
    out = _multiply(a, b, m)
    assert out.dtype == np.int64
    expected = python_matmul(a.astype(np.int64).tolist(), b.astype(np.int64).tolist())
    assert out.tolist() == expected


def test_frozen_2x2_product():
    a = np.array([[3.0, 5.0], [5.0, 3.0]])
    b = np.array([[2.0, 7.0], [7.0, 2.0]])
    assert _multiply(a, b, 10).tolist() == [[41, 31], [31, 41]]


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
    out = _multiply(full, full, m)
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


@pytest.mark.parametrize("m", [10**6, 2**25 + 1], ids=["one_gemm", "digits"])
def test_row_block_is_written_in_place_and_returned(m):
    """A block of left rows fills only its rows of ``out``, and ``multiply``
    returns the very block it wrote."""
    rng = np.random.default_rng(41)
    n = 9
    a, b = _table(rng, n, 1, m), _near_m(rng, n, m)
    product = np.full((n, n), -1, dtype=np.int64)
    block = product[2:7]
    assert multiply(a[2:7], b, m, block) is block
    expected = python_matmul(a.astype(np.int64).tolist(), b.astype(np.int64).tolist())
    assert product[2:7].tolist() == expected[2:7]
    assert (product[:2] == -1).all() and (product[7:] == -1).all()


@pytest.mark.parametrize("n", [1, 3, 13, 70])
@pytest.mark.parametrize("m", [1000, 2**28 + 5], ids=["one_gemm", "digits"])
def test_blocked_product_matches_python_oracle(n, m):
    """``numeric_product`` multiplies row blocks of a quarter of the rows at
    these sizes; at n = 13 and 70 the last block is short, and n = 1 and 3
    have fewer rows than four blocks."""
    rng = np.random.default_rng(n)
    x = validate(random_grid(rng, n, 5))
    sub = draw_substitution(x.r, m, rng)
    assert (n * m * m > FLOAT64_EXACT) == (m > 1000)
    left, right = (table.astype(np.int64)[x.cells].tolist() for table in (sub.left, sub.right))
    expected = python_matmul(left, right)
    assert numeric_product(x, sub).tolist() == expected


def test_product_halves_need_one_gemm_each(monkeypatch):
    """Each half of the inner dimension is its own exact product: at n = 70
    and the largest m with 35 * m**2 <= 2**53, values near m put every
    entry past 2**53, yet every block of either half is one GEMM, and the
    int64 sum of the halves matches Python integers."""
    n = 70
    m = isqrt(FLOAT64_EXACT // (n // 2))
    rng = np.random.default_rng(7)
    x = validate(random_grid(rng, n, 5))
    left, right = (np.append(0, m - rng.integers(0, 1000, x.r)) for _ in range(2))
    sub = RandomSubstitution(m, left.astype(np.int32), right.astype(np.int32))
    gemms = []
    real = probabilistic._gemm_into
    monkeypatch.setattr(probabilistic, "_gemm_into", lambda *a: gemms.append(1) or real(*a))
    expected = python_matmul(left[x.cells].tolist(), right[x.cells].tolist())
    assert min(map(min, expected)) > FLOAT64_EXACT
    assert numeric_product(x, sub).tolist() == expected
    rows, panels = _product_layout(n)
    assert len(panels) == 2
    assert len(gemms) == len(panels) * -(-n // rows)


@pytest.mark.parametrize(
    "n, rows",
    [(1, 1), (3, 1), (70, 18), (512, 128), (513, 129), (1023, 256), (1024, 128), (1031, 129),
     (2048, 256)],
)
def test_product_row_blocks_are_a_quarter_up_to_512_and_an_eighth_from_1024(n, rows):
    """Blocks of ``ceil(n/4)`` rows below n = 1024 and ``ceil(n/8)`` from
    there on: never more than a quarter of the rows, which the step guard
    counts."""
    assert _product_layout(n)[0] == rows
    assert rows <= -(-n // 4)


@pytest.mark.parametrize(
    "n, panels",
    [
        (1, [(0, 1)]),
        (3, [(0, 2), (2, 3)]),
        (70, [(0, 35), (35, 70)]),
        (512, [(0, 256), (256, 512)]),
        (1023, [(0, 512), (512, 1023)]),
        (1024, [(0, 256), (256, 512), (512, 768), (768, 1024)]),
        (1031, [(0, 258), (258, 516), (516, 774), (774, 1031)]),
        (2048, [(0, 512), (512, 1024), (1024, 1536), (1536, 2048)]),
    ],
)
def test_product_panels_are_halves_below_1024_and_quarters_from_there(n, panels):
    """The panels of ``w`` cover ``0..n`` in order, the last one short when
    they do not divide ``n``; at n = 1 there is one panel, with no empty
    second one."""
    assert _product_layout(n)[1] == panels


def _int64_product(x, sub):
    """The product of the gathered tables by numpy's integer matmul, an exact
    loop without BLAS (fast enough here with the right factor in Fortran
    order)."""
    left, right = (table.astype(np.int64)[x.cells] for table in (sub.left, sub.right))
    return np.matmul(left, np.asfortranarray(right))


def _near_m_substitution(rng, r, m):
    """Tables of values within 1% of ``m`` and each equal to it at color 1,
    so the product's partial sums grow all the way to ``n * m**2``."""
    left, right = (np.append([0, m], m - rng.integers(0, m // 100, r - 1)) for _ in range(2))
    return RandomSubstitution(m, left.astype(np.int32), right.astype(np.int32))


@pytest.mark.parametrize("n", [768, 1023, 1024, 1031])
@pytest.mark.parametrize("regime", ["one_gemm", "int64_panels", "digits"])
def test_product_in_eighth_row_blocks_is_exact(monkeypatch, n, regime):
    """From n = 1024 the row blocks are an eighth of the rows and the panels
    a quarter of ``w``, below it a quarter and halves: at n = 768 four full
    blocks of 192 rows, at n = 1023 blocks of 256 rows with a short last
    block, at 1024 eight full blocks, and at 1031 blocks of 129 rows and
    panels of 258 columns, each with a short last one.  In each of the
    three regimes the product is exact: at ``m =
    isqrt(2**53 // n)`` the panels are one GEMM each, summed in float64; at
    ``m = 2**22``, where ``n * m**2 > 2**53 >= n / 2 * m**2``, each panel is
    one GEMM cast to int64 and the panels are summed in int64; and at ``m =
    2**25 + 1`` each panel splits the left factor into digits."""
    m = {"one_gemm": isqrt(FLOAT64_EXACT // n), "int64_panels": 2**22, "digits": 2**25 + 1}[regime]
    rows, panels = _product_layout(n)
    widest = panels[0][1]
    assert (n * m * m <= FLOAT64_EXACT) == (regime == "one_gemm")
    assert (widest * m * m <= FLOAT64_EXACT) == (regime != "digits")
    rng = np.random.default_rng(n)
    x = validate(random_grid(rng, n, 1000))
    sub = _near_m_substitution(rng, x.r, m)
    sums, gemms = [], []
    real_multiply, real_gemm = probabilistic.multiply, probabilistic._gemm_into

    def multiply(a, b, m, out):
        sums.append(out.dtype)
        return real_multiply(a, b, m, out)

    monkeypatch.setattr(probabilistic, "multiply", multiply)
    monkeypatch.setattr(probabilistic, "_gemm_into", lambda *a: gemms.append(1) or real_gemm(*a))
    assert np.array_equal(numeric_product(x, sub), _int64_product(x, sub))
    calls = len(panels) * -(-n // rows)
    assert sums == [np.dtype(np.float64 if regime == "one_gemm" else np.int64)] * calls
    assert (len(gemms) == calls) == (regime != "digits")


def test_one_vertex_with_m_above_int32_keeps_uint32_widening():
    """Only n = 1 admits ``m >= 2**31``, past the int32 tables that
    :func:`draw_substitution` fills (a 1-vertex run is discrete before any
    draw).  The product gathers the tables it is given as they are, so
    uint32 tables built by hand, with values an int32 reading would make
    negative, still give ``left * right``."""
    m = isqrt(INT64_MAX)
    assert m >= 2**31
    check_product_bound(1, m)
    x = validate([[1]])
    for values in ((m, m), (m, 1), (2**31, 2**31 + 1)):
        left, right = (np.array([0, v], dtype=np.uint32) for v in values)
        expected = python_matmul([[int(left[1])]], [[int(right[1])]])
        assert numeric_product(x, RandomSubstitution(m, left, right)).tolist() == expected


@pytest.mark.parametrize("n", [1, 70, 1031])
@pytest.mark.parametrize("m", [1000, 2**25 + 1], ids=["one_gemm", "digits"])
def test_range_check_covers_the_last_block_of_the_second_half(monkeypatch, n, m):
    """The range check runs on each row block once its last panel is added:
    a product whose last entry sums to 0, in the last block of the last
    panel (the second half at n = 70, the fourth quarter at n = 1031), is
    refused, while the panels before it alone were in range.  At n = 1 the
    one panel is also the last (and both m are one GEMM)."""
    x = validate(random_grid(np.random.default_rng(n), n, 5))
    sub = draw_substitution(x.r, m, SplitMix64Stream(n))
    rows, panels = _product_layout(n)
    blocks = -(-n // rows)
    outs = []
    real = probabilistic.multiply

    def multiply_last_entry_to_zero(a, b, m, out):
        outs.append(real(a, b, m, out))
        if len(outs) == len(panels) * blocks:
            # the first panel wrote the last block's rows of the product,
            # which now hold the sum of the panels before this one
            first = outs[blocks - 1]
            assert first[-1, -1] > 0
            out[-1, -1] = 0 if first is out else -first[-1, -1]
        return out

    monkeypatch.setattr(probabilistic, "multiply", multiply_last_entry_to_zero)
    with pytest.raises(RefinementInvariantError, match=r"\[0, "):
        numeric_product(x, sub)
    assert len(outs) == len(panels) * blocks
