"""Monte Carlo refinement: random substitution plus exact integer products.

Instead of comparing full cell fingerprints, each iteration substitutes a
fresh random integer in ``1..m`` for every color -- one family for the left
(row) position, an independent family for the right (column) position -- and
multiplies the two numeric matrices exactly.  Cells whose fingerprints
differ collide in the product with probability at most ``2/m``; cells whose
fingerprints agree always receive equal numeric values.  The resulting
partition therefore *never* splits finer than the exact step, and a
refinement run can only err by stopping too early, one-sidedly.

A run's values come from :class:`SplitMix64Stream`, seeded by the run's
seed: raw value ``i`` is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) of
``seed + i * gamma``, reduced to ``1..m`` exactly uniformly by rejecting the
top ``2**64 mod m`` raw values.  The stream is defined here, not by numpy,
so a seed pins the same values under every numpy version.  Per iteration
the left family for colors ``1..r`` is drawn first, then the right family;
this draw order is part of the reproducibility contract.  The functions that
take an ``rng`` need only its ``integers(low, high, size, dtype)``, so a
``numpy.random.Generator`` serves as well.

Every refinement run, exact ones too (:mod:`wlclosure.classical`, whose
steps draw from a stream of fixed seed), is driven by
:func:`refine_lockstep` and sized by the memory guard :func:`guard_memory`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graph import (
    INT64_MAX,
    ColorMatrix,
    InputError,
    RefinementOutcome,
    ResourceGuardError,
    color_counts,
    gather,
    id_dtype,
    is_discrete,
    is_rainbow,
    rainbow_refine,
    refine_by,
)

FLOAT64_EXACT = 2**53
# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the increment and the two
# multipliers of its output mix
_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))
# raw values a stream makes at a time, so the mix's temporaries stay in
# cache; and the offsets ``i * gamma`` mod 2**64 of a block's states
_DRAW_BLOCK = 2**14
_GAMMA_STEPS = np.arange(_DRAW_BLOCK, dtype=np.uint64) * _GOLDEN_GAMMA
# rows cast at a time: an int64 panel's products are cast while its block of
# the left factor is still held, so the cast's staging adds to the peak
_CAST_ROWS = 16
# row blocks per product: each block's panel of the left factor is gathered
# and multiplied on its own, and the product sums over w in half as many
# panels, so at most a quarter of the right factor, a thirty-second of the
# left factor and an eighth of the rows of a later panel's products are held
# at a time
_PRODUCT_BLOCKS = 8

# the dtype of both substitution tables: every value is at most m < 2**31,
# and int32 widens to float64 faster than uint32
_TABLE_DTYPE = np.dtype(np.int32)

# What a Monte Carlo run may hold per cell.  Per coloring: its input, current
# and next cells, each as wide as the ids of a discrete coloring.  Per step,
# in bytes, shared by paired colorings: the substitution's two int32 tables
# (at most one entry per cell each) and the int64 product, plus the most any
# phase adds: the product's float64 panel of the right factor, row block of
# that panel of the left factor and row block of a later panel's products, a
# quarter, a thirty-second and an eighth of 8 bytes (19.25 bytes in all); the
# per-class int64 table of refine_by's constancy check, the largest (24); or
# the dropped low bits of the rank words (at most 4 bytes), sorted in the
# product's buffer.
# A step frees the tables before the last coloring's rank, but a paired step
# still holds them through the first coloring's, so they count here.
_COLORING_ARRAYS = 3
_STEP_CELL_BYTES = 2 * _TABLE_DTYPE.itemsize + 8 + max(
    16 / _PRODUCT_BLOCKS + 16 / _PRODUCT_BLOCKS**2 + 8 / _PRODUCT_BLOCKS, 8, 4
)


class RefinementInvariantError(RuntimeError):
    """Internal error: a refinement run violated its structural bounds."""


class OverflowGuardError(ArithmeticError):
    """The requested product could exceed the int64 range."""


@dataclass(frozen=True)
class WlResult:
    """Outcome of a full refinement run.

    ``trace[i]`` is the class count after step ``i + 1``; ``stopping_reason``
    is ``"stable"`` (an exact run's step split nothing and passed its row
    check, or ``patience`` Monte Carlo steps in a row split nothing),
    ``"budget_exhausted"`` (the theoretical policy ran its whole budget) or
    ``"discrete"`` (the run reached ``n**2`` classes, checked before every
    step, after which no step can split).  A discrete stop is exact in
    either mode: Monte Carlo iterates are never finer than the closure, so a
    discrete iterate is the closure.
    """

    closure: ColorMatrix
    iterations: int
    trace: tuple[int, ...]
    stopping_reason: str


def _counts_agree(colorings: tuple[ColorMatrix, ...]) -> bool:
    """All colorings have the same cell count per color id (arrays of
    different lengths, from different color counts, differ).  Discrete
    colorings of one size agree without counting: each id occurs once."""
    first, *rest = colorings
    if is_discrete(first) and all(c.r == first.r for c in rest):
        return True
    return all(np.array_equal(color_counts(c), color_counts(first)) for c in rest)


def refine_lockstep(
    inputs: tuple[ColorMatrix, ...],
    step: Callable[[tuple[ColorMatrix, ...]], Sequence[RefinementOutcome]],
    patience: int,
    budget: int | None = None,
) -> tuple[tuple[WlResult, ...], tuple[int, ...], tuple[bool, ...]]:
    """Rainbow-refine same-size colorings, then refine them in lockstep.

    ``step`` maps the current colorings to one refinement outcome each.
    Before each step the run stops with ``"discrete"`` once every coloring
    is discrete, then with ``"budget_exhausted"`` after ``budget`` steps,
    then with ``"stable"`` after ``patience`` steps in a row in which no
    coloring split.  Returns one result per input, the class counts of the
    rainbow-refined start, and per iteration (entry 0 the start) whether all
    colorings had the same cell count per color id.  Only the current
    colorings are kept, not the start.
    """
    n = inputs[0].n
    # Each coloring splits at most n**2 - 1 times and a run of quiet steps
    # stops at ``patience``, so no valid run takes more steps than this.
    cap = len(inputs) * n * n * patience
    current = tuple(rainbow_refine(x) for x in inputs)
    start = tuple(c.r for c in current)
    traces: tuple[list[int], ...] = tuple([] for _ in inputs)
    agree = [_counts_agree(current)]
    steps = quiet = 0
    while True:
        if all(is_discrete(c) for c in current):
            reason = "discrete"
            break
        if steps == budget:
            reason = "budget_exhausted"
            break
        if quiet == patience:
            reason = "stable"
            break
        if steps > cap:
            raise RefinementInvariantError("run did not stabilize within its structural cap")
        outcomes = step(current)
        current = tuple(out.result for out in outcomes)
        for trace, c in zip(traces, current):
            trace.append(c.r)
        agree.append(_counts_agree(current))
        steps += 1
        quiet = 0 if any(out.refined for out in outcomes) else quiet + 1
    results = tuple(WlResult(c, steps, tuple(t), reason) for c, t in zip(current, traces))
    return results, start, tuple(agree)


def _memory_budget() -> int | None:
    """Bytes one run, step or check may plan to hold: half of physical memory.

    ``None`` where the platform does not report its page count.
    """
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2
    except (AttributeError, OSError, ValueError):
        return None


def guard_memory(estimate: int, what: str, detail: str) -> None:
    """Raise :class:`ResourceGuardError` when ``what`` would need more than
    :func:`_memory_budget`, ``estimate`` bytes; ``detail`` sizes the work."""
    budget = _memory_budget()
    if budget is not None and estimate > budget:
        raise ResourceGuardError(
            f"{what} needs about {estimate / 2**20:.0f} MiB {detail}, over the "
            f"{budget / 2**20:.0f} MiB budget (half of physical memory)"
        )


def monte_carlo_bytes(n: int, colorings: int) -> int:
    """Estimated ``n**2`` working set of a Monte Carlo run over ``colorings``."""
    coloring_bytes = _COLORING_ARRAYS * id_dtype(n * n).itemsize
    return n * n * (coloring_bytes * colorings + _STEP_CELL_BYTES)


def _guard_monte_carlo(n: int, colorings: int) -> None:
    """Refuse a run whose estimated n**2 working set exceeds the memory budget."""
    guard_memory(monte_carlo_bytes(n, colorings), "Monte Carlo run", f"at n={n}")


def check_growth_constant(growth_constant: float) -> None:
    if not (math.isfinite(growth_constant) and growth_constant > 0):
        raise InputError(f"growth constant must be finite and positive, got {growth_constant}")


def iteration_budget(n: int, growth_constant: float = 1.0) -> int:
    """Iteration allowance for a size-``n`` run: ``ceil(growth_constant * n * log2(n))``.

    Stabilization needs O(n log n) steps up to a constant that is not known
    exactly; ``growth_constant`` scales the allowance.  ``n == 1`` gets one
    iteration.
    """
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    check_growth_constant(growth_constant)
    if n == 1:
        return 1
    return math.ceil(growth_constant * n * math.log2(n))


def _check_m(m: int) -> None:
    if m < 2:
        raise InputError(f"m must be >= 2, got {m}")


def check_product_bound(n: int, m: int) -> None:
    """Raise :class:`OverflowGuardError` unless every product entry, at most
    ``n * m**2``, fits int64."""
    if n * m**2 > INT64_MAX:
        raise OverflowGuardError(f"n * m**2 = {n * m**2} exceeds int64 max {INT64_MAX}")


@dataclass(frozen=True)
class RandomSubstitution:
    """One iteration's random color values: ``left[c]``/``right[c]`` for
    color ``c``, in int32 tables with entry 0 unused (0), which the product
    gathers from, widening them to float64 a block at a time.  Values are at
    most ``m``, which :func:`draw_substitution` keeps below ``2**31``."""

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


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output for each state in the uint64 array ``z``: ``z``
    plus the golden gamma, mixed; ``z`` is overwritten and returned."""
    z += _GOLDEN_GAMMA
    for shift, mul in zip((30, 27), _MIX):
        z ^= z >> np.uint64(shift)
        z *= mul
    z ^= z >> np.uint64(31)
    return z


class SplitMix64Stream:
    """The seeded, counter-based random stream of Monte Carlo runs.

    Raw value ``i`` (from 0) is ``splitmix64(seed + i * gamma)`` mod
    ``2**64``, the ``i``-th output of SplitMix64 started at ``seed``.  A
    seed of ``2**64`` or more is reduced mod ``2**64``, so ``s`` and
    ``s + 2**64`` give one stream.  :meth:`integers` takes raw values in
    order, so two draws continue one sequence.
    """

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise InputError(f"seed must be >= 0, got {seed}")
        self._seed = seed % 2**64
        self._drawn = 0

    def _raw(self, size: int) -> np.ndarray:
        """The next ``size`` raw values, ``size <= _DRAW_BLOCK``."""
        start = (self._seed + self._drawn * int(_GOLDEN_GAMMA)) % 2**64
        self._drawn += size
        return _splitmix64(_GAMMA_STEPS[:size] + np.uint64(start))

    def integers(self, low: int, high: int, size: int, dtype=np.int64) -> np.ndarray:
        """``size`` values uniform on ``low..high - 1``, for
        ``0 <= low < high < 2**64``, in ``dtype``, which must hold them.

        A raw value ``z`` gives ``low + z % (high - low)``.  The top
        ``2**64 mod (high - low)`` raw values would make the small
        remainders likelier; they are rejected and the next raw values
        taken, so every value in range is exactly equally likely.  Raw
        values are made ``_DRAW_BLOCK`` at a time, so the only array as
        large as the draw is the one returned.
        """
        if not 0 <= low < high < 2**64:
            raise ValueError(f"need 0 <= low < high < 2**64, got {low}, {high}")
        span = np.uint64(high - low)
        reject = 2**64 % (high - low)
        limit = np.uint64(2**64 - reject) if reject else None
        out = np.empty(size, dtype=dtype)
        filled = 0
        while filled < size:
            z = self._raw(min(_DRAW_BLOCK, size - filled))
            if limit is not None and not (keep := z < limit).all():
                z = z[keep]
            # z % span: numpy divides by a scalar with a precomputed
            # multiplier, but not in %, which took twice as long
            z -= z // span * span
            z += np.uint64(low)
            out[filled : filled + len(z)] = z
            filled += len(z)
        return out


def draw_substitution(r: int, m: int, rng: SplitMix64Stream) -> RandomSubstitution:
    """Draw fresh left and right families of uniform values in ``1..m``:
    color ``c`` gets the ``c``-th value of each draw, the left one first.
    ``rng`` is the run's :class:`SplitMix64Stream` or anything with its
    ``integers``, such as a ``numpy.random.Generator``.  The values go into
    int32 tables, so ``m`` must be below ``2**31``: the product bound gives
    that at every ``n >= 2``, and a 1-vertex coloring is discrete before
    any draw."""
    if r < 1:
        raise InputError(f"color count must be >= 1, got {r}")
    _check_m(m)
    if m > np.iinfo(_TABLE_DTYPE).max:
        raise OverflowGuardError(f"m {m} exceeds the int32 range of the substitution tables")
    left, right = np.zeros((2, r + 1), dtype=_TABLE_DTYPE)
    left[1:] = rng.integers(1, m + 1, size=r, dtype=_TABLE_DTYPE)
    right[1:] = rng.integers(1, m + 1, size=r, dtype=_TABLE_DTYPE)
    return RandomSubstitution(m, left, right)


def _gemm_into(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``a @ b`` of integer-valued float64 factors into ``out``, a
    float64 or int64 array, and return it.

    An int64 ``out`` is written viewed as float64, which is then cast in
    place.  ``copyto`` stages an overlapping source through a temporary, so
    casting ``_CAST_ROWS`` rows at a time needs that many rows of extra
    memory.
    """
    c = out.view(np.float64)
    np.matmul(a, b, out=c)
    if out.dtype == np.int64:
        for r0 in range(0, len(c), _CAST_ROWS):
            np.copyto(out[r0:r0 + _CAST_ROWS], c[r0:r0 + _CAST_ROWS], casting="unsafe")
    return out


def _digit(a: np.ndarray, width: int, i: int) -> np.ndarray:
    """Base-``2**width`` digit ``i`` of the integer-valued float64 factor ``a``;
    dividing by a power of two and the remainder are exact in float64."""
    digits = np.floor_divide(a, float(1 << width * i))
    return np.fmod(digits, float(1 << width), out=digits)


def multiply(a: np.ndarray, b: np.ndarray, m: int, out: np.ndarray) -> np.ndarray:
    """Write the exact product of float64 factors of integers in ``1..m``
    into ``out`` and return it.

    ``a`` is ``k x n``, ``b`` is ``n x l`` and ``out`` is ``k x l``; the
    caller has checked ``n * m**2 <= 2**63 - 1``.  ``out`` is int64, or
    float64 when ``n * m**2 <= 2**53``: then the product is left in float64,
    each entry an integer that float64 holds exactly.  Why a float64 GEMM is
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
    n = b.shape[0]
    if n * m * m <= FLOAT64_EXACT:
        return _gemm_into(a, b, out)
    width = (FLOAT64_EXACT // (n * m)).bit_length() - 1
    top = -(-m.bit_length() // width) - 1
    _gemm_into(_digit(a, width, top), b, out)
    for i in reversed(range(top)):
        out <<= width
        out += _gemm_into(_digit(a, width, i), b, np.empty_like(out))
    return out


def _product_layout(n: int) -> tuple[int, list[tuple[int, int]]]:
    """The blocking of the product at ``n``: the rows of its row blocks,
    ``ceil(n/8)``, and the bounds of its panels of ``w``, ``ceil(n/4)``
    columns each.  The last block and panel are short when they do not
    divide ``n``."""
    rows, width = -(-n // _PRODUCT_BLOCKS), -(-n // (_PRODUCT_BLOCKS // 2))
    return rows, [(k0, min(k0 + width, n)) for k0 in range(0, n, width)]


def numeric_product(x: ColorMatrix, sub: RandomSubstitution) -> np.ndarray:
    """Exact product of the substituted row and column matrices.

    Entry ``(u, v)`` is the sum over ``w`` of ``left[c(u, w)] * right[c(w, v)]``,
    a number in ``[n, n * m**2]``, returned as an int64 matrix; the bound is
    checked up front against the int64 range and the run aborts rather than
    wrap.  The factors are gathered straight from the substitution's int32
    tables, each block widened to float64 in cache by
    :func:`~wlclosure.graph.gather`, so no float64 table or table copy is
    made.  The sum runs over panels of ``w`` laid out by
    :func:`_product_layout`, quarters of ``w`` in row blocks of an eighth
    of the rows, so only one panel of the right factor is held at a time:
    each panel's rows of the right factor are gathered once, and the
    matching columns of the left factor in row blocks.  The first panel's
    products are written into the product, each later panel's, from a block
    temporary, added to them.

    Each panel is a product by :func:`multiply`.  When ``n * m**2 <=
    2**53`` the panels are summed in float64, in the product's rows viewed
    as float64, and each row block is cast to int64 once, as its last panel
    is added.  That sum is exact: every entry of the factors is an integer in
    ``1..m``, so every partial sum, within a panel's GEMM or across panels,
    is an integer of at most ``n * m**2 <= 2**53``, which float64 holds, and
    every addition is exact in any order.  Otherwise each panel is an exact
    int64 product (digits when the panel's own bound is past ``2**53``), and
    so is their int64 sum, at most ``n * m**2``.  Each row block is
    range-checked once its sum is complete, while it is in cache.
    """
    if len(sub.left) <= x.r or len(sub.right) <= x.r:
        raise InputError("substitution covers fewer colors than the input uses")
    n, m = x.n, sub.m
    check_product_bound(n, m)
    product = np.empty(x.cells.shape, dtype=np.int64)
    (rows, panels), bound = _product_layout(n), n * m**2
    in_float = bound <= FLOAT64_EXACT
    for k0, k1 in panels:
        right = gather(sub.right, x.cells[k0:k1], np.float64)
        for r0 in range(0, n, rows):
            block = gather(sub.left, x.cells[r0:r0 + rows, k0:k1], np.float64)
            done = product[r0:r0 + rows]
            sums = done.view(np.float64) if in_float else done
            if k0 == 0:
                # a product of one panel (n = 1) is cast by multiply itself
                multiply(block, right, m, sums if k1 < n else done)
            else:
                part = multiply(block, right, m, np.empty_like(sums))
                del block
                if in_float and k1 == n:
                    # the last panel's sum is made in its block temporary,
                    # from which the rows are cast, with no staging
                    part += sums
                    np.copyto(done, part, casting="unsafe")
                else:
                    sums += part
                del part
            if k1 < n:
                continue
            lo, hi = int(done.min()), int(done.max())
            if lo < n or hi > bound:
                raise RefinementInvariantError(
                    f"product entries [{lo}, {hi}] left the guaranteed range"
                )
        del right
    return product


def _substitution_steps(m: int, rng: SplitMix64Stream):
    """A driver step: one fresh substitution, sized for the largest color
    count, applied to every coloring, so color ids that agree across
    colorings receive the same random values."""

    def step(colorings: tuple[ColorMatrix, ...]) -> list[RefinementOutcome]:
        sub = draw_substitution(max(c.r for c in colorings), m, rng)
        # each product becomes its rank key and is freed before the next
        # coloring's is made; the last is ranked after the tables are freed
        *first, last = colorings
        outcomes = [refine_by(c, numeric_product(c, sub)) for c in first]
        product = numeric_product(last, sub)
        del sub
        return [*outcomes, refine_by(last, product)]

    return step


def probabilistic_step(x: ColorMatrix, m: int, rng: SplitMix64Stream) -> RefinementOutcome:
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
    :class:`ResourceGuardError`, and one whose product bound exceeds int64
    :class:`OverflowGuardError`, before it starts.
    """
    _guard_monte_carlo(inputs[0].n, len(inputs))
    check_product_bound(inputs[0].n, params.m)
    policy = params.policy
    step = _substitution_steps(params.m, SplitMix64Stream(params.seed))
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


def check_coherent(x: ColorMatrix, m: int, trials: int, rng: SplitMix64Stream) -> bool:
    """Fast coherence test: does any of ``trials`` random passes split a class?

    A discrete coloring (rainbow, and it cannot split) is coherent; any
    other over the memory budget raises :class:`ResourceGuardError`, then
    one not already rainbow is not coherent, all without sampling.  A
    product bound over int64 raises :class:`OverflowGuardError` before the
    first trial.  For coherent inputs the answer is always ``True``; for
    others each trial fails to notice a split with probability at most
    ``2/m``, so a wrong ``True`` occurs with probability at most
    ``(2/m)**trials``.
    """
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    _check_m(m)
    if is_discrete(x):
        return True
    _guard_monte_carlo(x.n, 1)
    if not is_rainbow(x):
        return False
    check_product_bound(x.n, m)
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
