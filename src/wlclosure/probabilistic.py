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

from .classical import RefinementInvariantError, WlResult, iteration_budget, refine_lockstep
from .graph import ColorMatrix, InputError, RefinementOutcome, is_discrete, is_rainbow, refine_by
from .matmul import INT64_MAX, OverflowGuardError, multiply


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
        if self.growth_constant <= 0:
            raise InputError("growth constant must be positive")
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
        if self.m < 2:
            raise InputError(f"m must be >= 2, got {self.m}")


def draw_substitution(r: int, m: int, rng: np.random.Generator) -> RandomSubstitution:
    """Draw fresh left and right families of uniform values in ``1..m``."""
    if r < 1:
        raise InputError(f"color count must be >= 1, got {r}")
    if m < 2:
        raise InputError(f"m must be >= 2, got {m}")
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
    product = multiply(_gather(sub.left, x.cells), _gather(sub.right, x.cells))
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
    never stops a run first.  The practical policy has no budget.
    """
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
    if is_discrete(x):
        return True
    if not is_rainbow(x):
        return False
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
    if m < 2:
        raise InputError(f"m must be >= 2, got {m}")
    if growth_constant <= 0:
        raise InputError("growth constant must be positive")
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
