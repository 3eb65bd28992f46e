"""Exact refinement of colored complete digraphs, and the refinement driver.

One refinement step gives every cell ``(u, v)`` the multiset of color pairs
``{(c(u, w), c(w, v)) : w}`` -- the cell's row column against the other
cell's column, read through every intermediate vertex -- and splits classes
whose cells disagree.  Iterating until no class splits yields the coarsest
coloring that is stable under this product, the coherent closure.

:func:`classical_step` packs each fingerprint into a run-length byte string
built from sorted numeric pair codes; byte order equals the order of the
sorted pair/count tuples, which a pure-Python reference in the tests
materializes.  :func:`refine_lockstep` is the one loop that drives every
refinement run, exact or Monte Carlo, single or paired: the kind of step is
its parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graph import (
    ColorMatrix,
    InputError,
    RefinementOutcome,
    color_counts,
    is_discrete,
    rainbow_refine,
    refine_by,
)

_CHUNK_TARGET_BYTES = 32 * 2**20


class RefinementInvariantError(RuntimeError):
    """Internal error: a refinement run violated its structural bounds."""


@dataclass(frozen=True)
class WlResult:
    """Outcome of a full refinement run.

    ``trace[i]`` is the class count after step ``i + 1``; ``stopping_reason``
    is ``"stable"`` (the exact step split nothing, or ``patience`` Monte
    Carlo steps in a row did not), ``"budget_exhausted"`` (the theoretical
    policy ran its whole budget) or ``"discrete"`` (the run reached ``n**2``
    classes, checked before every step, after which no step can split).  A
    discrete stop is exact in either mode: Monte Carlo iterates are never
    finer than the closure, so a discrete iterate is the closure.
    """

    closure: ColorMatrix
    iterations: int
    trace: tuple[int, ...]
    stopping_reason: str


def _counts_agree(colorings: tuple[ColorMatrix, ...]) -> bool:
    """All colorings have the same cell count per color id."""
    first, *rest = colorings
    return all(color_counts(c) == color_counts(first) for c in rest)


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


def _fingerprint_keys(x: ColorMatrix) -> list[bytes]:
    """Fingerprints as packed byte strings, row-major.

    Each pair ``(left, right)`` becomes the code ``left * (r + 1) + right``;
    per cell the sorted codes are run-length encoded and serialized as
    big-endian u64 ``code, count`` words.  Lexicographic byte order of the
    result matches lexicographic order of the sorted pair/count tuples.
    """
    n = x.n
    base = x.r + 1
    cells = x.cells
    mirror = cells.T
    rows_per_chunk = max(1, _CHUNK_TARGET_BYTES // (n * n * 8))
    keys: list[bytes] = []
    for u0 in range(0, n, rows_per_chunk):
        u1 = min(u0 + rows_per_chunk, n)
        codes = cells[u0:u1, None, :] * base + mirror[None, :, :]
        codes.sort(axis=2)
        for row in codes.reshape(-1, n):
            starts = np.empty(n, dtype=bool)
            starts[0] = True
            np.not_equal(row[1:], row[:-1], out=starts[1:])
            idx = np.flatnonzero(starts)
            words = np.empty(2 * len(idx), dtype=np.uint64)
            words[0::2] = row[idx]
            words[1::2] = np.diff(idx, append=n)
            keys.append(words.astype(">u8").tobytes())
    return keys


def classical_step(x: ColorMatrix) -> RefinementOutcome:
    """Split the classes of ``x`` by exact cell fingerprints."""
    keys = _fingerprint_keys(x)
    rank_of = {key: i + 1 for i, key in enumerate(sorted(set(keys)))}
    values = np.fromiter((rank_of[k] for k in keys), dtype=np.int64, count=len(keys))
    return refine_by(x, values.reshape(x.n, x.n))


def _classical_steps(colorings: tuple[ColorMatrix, ...]) -> list[RefinementOutcome]:
    return [classical_step(c) for c in colorings]


def classical_closure(x: ColorMatrix) -> WlResult:
    """Refine ``x`` (after rainbow preprocessing) until no class splits.

    The exact mode of :func:`refine_lockstep`: patience 1, no budget.  A
    discrete coloring stops the run before another step, since it cannot
    split.
    """
    (result,), _, _ = refine_lockstep((x,), _classical_steps, patience=1)
    return result


def iteration_budget(n: int, growth_constant: float = 1.0) -> int:
    """Iteration allowance for a size-``n`` run: ``ceil(growth_constant * n * log2(n))``.

    Stabilization needs O(n log n) steps up to a constant that is not known
    exactly; ``growth_constant`` scales the allowance.  ``n == 1`` gets one
    iteration.
    """
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if growth_constant <= 0:
        raise InputError(f"growth constant must be positive, got {growth_constant}")
    if n == 1:
        return 1
    return math.ceil(growth_constant * n * math.log2(n))
