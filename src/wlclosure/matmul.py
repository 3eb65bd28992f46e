"""Exact integer matrix products on float64 BLAS GEMM, with an overflow guard.

Before multiplying, the worst-case magnitude ``k * max|a| * max|b|`` is
bounded in exact Python integers; when it could exceed int64 the call aborts
with :class:`OverflowGuardError` rather than return a wrapped value.

Why a float64 GEMM is exact: every integer of magnitude at most ``2**53`` is
a float64.  When the bound is at most ``2**53``, every product of two entries
and every partial sum is such an integer, so each floating-point operation is
exact -- in any summation order, with any thread count, with or without FMA --
and the result is bit-reproducible across BLAS builds.  Above ``2**53`` the
larger factor is split into base-``2**s`` limbs (Ozaki, Ogita, Oishi & Rump,
Numer. Algorithms 59, 2012), with ``s`` chosen so each limb's GEMM again stays
within ``2**53``; the exact int64 limb products are recombined with shifts.
Those shifts and sums may wrap in between, but int64 arithmetic is exact
modulo ``2**64`` and the guard keeps the true product inside int64, so the
recombined result is exact.
"""

from __future__ import annotations

import numpy as np

from .graph import INT64_MAX, InputError

FLOAT64_EXACT = 2**53
_CAST_ROWS = 64


class OverflowGuardError(ArithmeticError):
    """The requested product could exceed the int64 range."""


def _operand(raw) -> np.ndarray:
    """A 2-D integer matrix: float64 arrays pass as they are, anything else as int64."""
    if isinstance(raw, np.ndarray) and raw.dtype == np.float64:
        arr = raw
    else:
        arr = np.ascontiguousarray(raw, dtype=np.int64)
    if arr.ndim != 2:
        raise InputError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    return arr


def _max_abs(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    return max(abs(int(a.max())), abs(int(a.min())))


def _limb(x: np.ndarray, width: int, count: int, i: int) -> np.ndarray:
    """Limb ``i`` of ``x`` in base ``2**width``, as float64.

    Lower limbs are the digits in ``[0, 2**width)``; the top limb is the
    arithmetic shift, which keeps the sign and lies in ``[-2**width, 2**width)``
    because ``count`` limbs span the bit length of ``max|x|``.
    """
    if count == 1:
        return x.astype(np.float64, copy=False)
    limb = x.astype(np.int64, copy=False) >> (width * i)
    if i < count - 1:
        limb &= (1 << width) - 1
    return limb.astype(np.float64)


def _as_int64(c: np.ndarray) -> np.ndarray:
    """Cast the integer-valued float64 matrix ``c`` to int64 in its own buffer.

    ``copyto`` stages an overlapping source through a temporary, so casting a
    block of rows at a time needs one block of extra memory, not a second
    matrix.
    """
    out = c.view(np.int64)
    for r0 in range(0, len(c), _CAST_ROWS):
        np.copyto(out[r0:r0 + _CAST_ROWS], c[r0:r0 + _CAST_ROWS], casting="unsafe")
    return out


def multiply(a, b) -> np.ndarray:
    """Exact int64 product of two integer matrices.

    Operands may be int64-convertible or float64 arrays holding integers.
    Raises :class:`OverflowGuardError` when the conservative magnitude bound
    does not fit int64; never returns a wrapped value.
    """
    a = _operand(a)
    b = _operand(b)
    if a.shape[1] != b.shape[0]:
        raise InputError(f"inner dimensions differ: {a.shape} x {b.shape}")
    inner = a.shape[1]
    max_a, max_b = _max_abs(a), _max_abs(b)
    bound = inner * max_a * max_b
    if bound > INT64_MAX:
        raise OverflowGuardError(
            f"product magnitude bound {bound} exceeds int64 max {INT64_MAX}"
        )
    split_left = max_a >= max_b
    split, other = (a, b) if split_left else (b, a)
    other = other.astype(np.float64, copy=False)
    width, count = 0, 1
    if bound > FLOAT64_EXACT:
        # each limb is at most 2**width in magnitude: 2**width * inner * max|other| <= 2**53
        width = (FLOAT64_EXACT // (inner * min(max_a, max_b))).bit_length() - 1
        count = -(-max(max_a, max_b).bit_length() // width)
    product = None
    for i in reversed(range(count)):
        limb = _limb(split, width, count, i)
        part = _as_int64(limb @ other if split_left else other @ limb)
        if product is None:
            product = part
        else:
            product <<= width
            product += part
    return product
