"""Monte Carlo refinement: random substitution plus exact integer products.

Instead of comparing full cell fingerprints, each iteration substitutes a
fresh random integer in ``1..m`` for every color -- one family for the left
(row) position, an independent family for the right (column) position -- and
multiplies the two numeric matrices exactly.  Cells whose fingerprints
differ collide in the product with probability at most ``2/m``; cells whose
fingerprints agree always receive equal numeric values.  The resulting
partition therefore *never* splits finer than the exact step, and a
refinement run can only err by stopping too early, one-sidedly.

All randomness flows through a caller-supplied ``numpy.random.Generator``
(``default_rng``/PCG64 by seed everywhere in this package).  Per iteration
the left family for colors ``1..r`` is drawn first, then the right family;
this draw order is part of the reproducibility contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import (
    RefinementInvariantError,
    WlResult,
    check_growth_constant,
    guard_memory,
    iteration_budget,
    refine_lockstep,
)
from .graph import (
    INT64_MAX,
    ColorMatrix,
    InputError,
    RefinementOutcome,
    is_discrete,
    is_rainbow,
    refine_by,
)

FLOAT64_EXACT = 2**53
_CAST_ROWS = 64

# Bytes per cell a Monte Carlo run may hold: each coloring's input, current
# and next cells, plus one step's two float64 operands, its product and the
# rank layer's two buffers (sort words, or the fallback's order and ranks).
_COLORING_CELL_BYTES = 24
_STEP_CELL_BYTES = 40


class OverflowGuardError(ArithmeticError):
    """The requested product could exceed the int64 range."""


def _check_m(m: int) -> None:
    if m < 2:
        raise InputError(f"m must be >= 2, got {m}")


def _guard_monte_carlo(n: int, colorings: int) -> None:
    """Refuse a run whose estimated n**2 working set exceeds the memory budget."""
    estimate = n * n * (_COLORING_CELL_BYTES * colorings + _STEP_CELL_BYTES)
    guard_memory(estimate, "Monte Carlo run", f"at n={n}")


@dataclass(frozen=True)
class RandomSubstitution:
    """One iteration's random color values: ``left[c-1]``/``right[c-1]`` for color ``c``."""

    m: int
    left: np.ndarray
    right: np.ndarray


@dataclass(frozen=True)
class StoppingPolicy:
    """When a refinement run stops.

    ``theoretical`` runs the full :func:`iteration_budget` regardless of
    progress; ``practical`` stops after ``patience`` consecutive iterations
    without a split (each missed split survives one such iteration with
    probability at most ``2/m``, so the miss probability decays as
    ``(2/m)**patience``).  Under either policy a run stops early, with
    reason ``"discrete"`` and no chance of error, once its coloring is
    discrete: with ``n**2`` classes no step can split anything.
    """

    kind: str
    growth_constant: float = 1.0
    patience: int = 3

    def __post_init__(self) -> None:
        if self.kind not in ("theoretical", "practical"):
            raise InputError(f"unknown stopping policy kind {self.kind!r}")
        check_growth_constant(self.growth_constant)
        if self.patience < 1:
            raise InputError("patience must be >= 1")

    @classmethod
    def practical(cls, patience: int = 3) -> "StoppingPolicy":
        return cls("practical", patience=patience)

    @classmethod
    def theoretical(cls, growth_constant: float = 1.0) -> "StoppingPolicy":
        return cls("theoretical", growth_constant=growth_constant)


@dataclass(frozen=True)
class RunParams:
    """Knobs of one Monte Carlo run: substitution range, stopping rule, seed."""

    m: int
    policy: StoppingPolicy
    seed: int

    def __post_init__(self) -> None:
        _check_m(self.m)
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


def draw_substitution(r: int, m: int, rng: np.random.Generator) -> RandomSubstitution:
    """Draw fresh left and right families of uniform values in ``1..m``."""
    if r < 1:
        raise InputError(f"color count must be >= 1, got {r}")
    _check_m(m)
    if m > INT64_MAX:
        raise OverflowGuardError(f"m {m} exceeds the int64 value range")
    left = rng.integers(1, m + 1, size=r, dtype=np.int64)
    right = rng.integers(1, m + 1, size=r, dtype=np.int64)
    return RandomSubstitution(m, left, right)


def _gather(table: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """``table[cells - 1]`` as float64, gathered from a float64 copy of the
    table with a leading 0, so no int64 temporary the size of ``cells`` is
    made.  Values up to ``m`` are exact floats: the guard on ``n * m**2``
    keeps ``m`` below 2**32.  The copy is freed on return, before the other
    table's is made, which matters when a table has one entry per cell."""
    return np.concatenate(([0.0], table))[cells]


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


def multiply(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Exact int64 product of two ``n x n`` float64 tables of integers in ``1..m``.

    The caller has checked ``n * m**2 <= 2**63 - 1``.  Why a float64 GEMM is
    exact: every integer of magnitude at most ``2**53`` is a float64.  When
    ``n * m**2 <= 2**53``, every product of two entries and every partial sum
    is such an integer, so each floating-point operation is exact -- in any
    summation order, with any thread count, with or without FMA -- and the
    result is bit-reproducible across BLAS builds.  Above ``2**53`` the left
    factor is split into base-``2**width`` digits (Ozaki, Ogita, Oishi & Rump,
    Numer. Algorithms 59, 2012), with ``n * m * 2**width <= 2**53`` so each
    digit's GEMM is again exact.  The number of GEMMs depends only on
    ``(n, m)``.  Recombining from the top digit down, the running sum is
    ``(a >> width * i) @ b``, never more than the full product, so the int64
    shifts and sums do not wrap.
    """
    n = a.shape[1]
    if n * m * m <= FLOAT64_EXACT:
        return _as_int64(a @ b)
    width = (FLOAT64_EXACT // (n * m)).bit_length() - 1
    product = None
    for i in reversed(range(-(-m.bit_length() // width))):
        digits = a.astype(np.int64)
        digits >>= width * i
        digits &= (1 << width) - 1
        digits = digits.astype(np.float64)
        part = _as_int64(digits @ b)
        if product is None:
            product = part
        else:
            product <<= width
            product += part
    return product


def numeric_product(x: ColorMatrix, sub: RandomSubstitution) -> np.ndarray:
    """Exact product of the substituted row and column matrices.

    Entry ``(u, v)`` is the sum over ``w`` of ``left[c(u, w)] * right[c(w, v)]``,
    a number in ``[n, n * m**2]``, returned as an int64 matrix; the bound is
    checked up front against the int64 range and the run aborts rather than
    wrap.
    """
    if sub.left.shape[0] < x.r or sub.right.shape[0] < x.r:
        raise InputError("substitution covers fewer colors than the input uses")
    if x.n * sub.m**2 > INT64_MAX:
        raise OverflowGuardError(
            f"n * m**2 = {x.n * sub.m**2} exceeds int64 max {INT64_MAX}"
        )
    product = multiply(_gather(sub.left, x.cells), _gather(sub.right, x.cells), sub.m)
    lo, hi = int(product.min()), int(product.max())
    if lo < x.n or hi > x.n * sub.m**2:
        raise RefinementInvariantError(
            f"product entries [{lo}, {hi}] left the guaranteed range"
        )
    return product


def _substitution_steps(m: int, rng: np.random.Generator):
    """A driver step: one fresh substitution, sized for the largest color
    count, applied to every coloring, so color ids that agree across
    colorings receive the same random values."""

    def step(colorings: tuple[ColorMatrix, ...]) -> list[RefinementOutcome]:
        sub = draw_substitution(max(c.r for c in colorings), m, rng)
        return [refine_by(c, numeric_product(c, sub)) for c in colorings]

    return step


def probabilistic_step(x: ColorMatrix, m: int, rng: np.random.Generator) -> RefinementOutcome:
    """One randomized refinement pass with a fresh substitution."""
    (outcome,) = _substitution_steps(m, rng)((x,))
    return outcome


def _monte_carlo_run(
    inputs: tuple[ColorMatrix, ...], params: RunParams
) -> tuple[tuple[WlResult, ...], tuple[int, ...], tuple[bool, ...]]:
    """:func:`refine_lockstep` with Monte Carlo steps on the seeded stream.

    The theoretical policy runs its budget: a patience equal to the budget
    never stops a run first.  The practical policy has no budget.  A run
    whose estimated working set exceeds the memory budget raises
    :class:`~wlclosure.classical.ResourceGuardError` before it starts.
    """
    _guard_monte_carlo(inputs[0].n, len(inputs))
    policy = params.policy
    step = _substitution_steps(params.m, np.random.default_rng(params.seed))
    if policy.kind == "practical":
        return refine_lockstep(inputs, step, policy.patience)
    budget = iteration_budget(inputs[0].n, policy.growth_constant)
    return refine_lockstep(inputs, step, budget, budget)


def probabilistic_closure(x: ColorMatrix, params: RunParams) -> WlResult:
    """Randomized refinement run from ``x`` to its (probable) closure.

    Identical inputs and params reproduce the identical result, trace and
    all.  The practical policy can stop early only by missing a split for
    ``patience`` consecutive independent iterations.  A ``"discrete"`` stop
    is exact: every iterate is at most as fine as the exact closure, so a
    discrete iterate is the closure.
    """
    (result,), _, _ = _monte_carlo_run((x,), params)
    return result


def check_coherent(x: ColorMatrix, m: int, trials: int, rng: np.random.Generator) -> bool:
    """Fast coherence test: does any of ``trials`` random passes split a class?

    A coloring that is not already rainbow is reported not coherent, and a
    discrete one (which is rainbow and cannot split) coherent, both without
    sampling.  For coherent inputs the answer is always ``True``; for others
    each trial fails to notice a split with probability at most ``2/m``, so
    a wrong ``True`` occurs with probability at most ``(2/m)**trials``.
    """
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    _check_m(m)
    if is_discrete(x):
        return True
    if not is_rainbow(x):
        return False
    _guard_monte_carlo(x.n, 1)
    for _ in range(trials):
        if probabilistic_step(x, m, rng).refined:
            return False
    return True


def error_bound(n: int, m: int, growth_constant: float = 1.0) -> float:
    """Bound on the probability that a theoretical-policy run misses a split.

    Each iteration compares at most ``n**4`` cell pairs, each colliding with
    probability at most ``2/m``, over ``growth_constant * n * log2(n)``
    iterations: ``min(1, 2 * growth_constant * n**5 * log2(n) / m)``.  For
    ``m <= 2 * n**4`` the premise gives nothing and the bound is 1.0; a
    single vertex can never be mis-refined, so ``n == 1`` gives 0.0.
    """
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    _check_m(m)
    check_growth_constant(growth_constant)
    if n == 1:
        return 0.0
    if m <= 2 * n**4:
        return 1.0
    return min(1.0, 2.0 * growth_constant * n**5 * math.log2(n) / m)


@dataclass(frozen=True)
class PairedRun:
    """Two lockstep runs under shared randomness, plus what they imply.

    Unpacks as ``(first, second, mapping)``.  ``mapping`` is a candidate
    vertex bijection read off the loop colors when both closures are
    discrete, else ``None``.  ``iteration_trace[i]`` is ``(classes of
    first, classes of second, counts agree)`` after ``i`` steps (entry 0 is
    the rainbow-refined start), where ``counts agree`` says whether both
    sides had the same cell count per color id; isomorphic inputs agree at
    every step.  Both results share the stopping reason and iteration count;
    the run stops with ``"discrete"`` once both sides are discrete.
    """

    first: WlResult
    second: WlResult
    mapping: tuple[int, ...] | None
    iteration_trace: tuple[tuple[int, int, bool], ...]

    def __iter__(self):
        yield self.first
        yield self.second
        yield self.mapping


def _loop_mapping(a: ColorMatrix, b: ColorMatrix) -> tuple[int, ...] | None:
    loops_a = [int(c) for c in a.cells.diagonal()]
    loops_b = [int(c) for c in b.cells.diagonal()]
    if len(set(loops_a)) != a.n or len(set(loops_b)) != b.n:
        return None
    position = {c: v for v, c in enumerate(loops_b)}
    if set(position) != set(loops_a):
        return None
    return tuple(position[c] for c in loops_a)


def paired_closure(x: ColorMatrix, y: ColorMatrix, params: RunParams) -> PairedRun:
    """Refine two same-size colorings in lockstep on one random stream.

    Every iteration draws a single substitution sized for the larger color
    count and applies it to both sides, so color ids that agree across the
    sides keep receiving the same random values.  Isomorphic inputs (written
    with a shared color vocabulary) then follow identical trajectories, and
    a divergence of the per-color count vectors certifies that no refinement
    run can treat the inputs alike.  The run stops with ``"discrete"`` once
    both sides are discrete.
    """
    if x.n != y.n:
        raise InputError("paired inputs must have the same size")
    (first, second), (start_a, start_b), agree = _monte_carlo_run((x, y), params)
    classes = zip((start_a, *first.trace), (start_b, *second.trace), agree)
    return PairedRun(first, second, _loop_mapping(first.closure, second.closure), tuple(classes))
