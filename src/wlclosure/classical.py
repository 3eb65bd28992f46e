"""Exact refinement of colored complete digraphs, and the refinement driver.

One refinement step gives every cell ``(u, v)`` the multiset of color pairs
``{(c(u, w), c(w, v)) : w}`` -- the cell's row column against the other
cell's column, read through every intermediate vertex -- and splits classes
whose cells disagree.  Iterating until no class splits yields the coarsest
coloring that is stable under this product, the coherent closure.

:func:`classical_step` numbers the new classes by ``(old color, sorted
run-length fingerprint)``, the fingerprint read as ``(code, count)`` words
with ``code = c(u, w) * (r + 1) + c(w, v)``; the tests hold it against a
reference that builds those words as one byte string per cell.  Here no
object is built per cell.  Each cell becomes one fixed-width row: its old
color, then its n sorted codes, every code equal to its left neighbour
replaced by the sentinel ``(r + 1)**2``, larger than any code.  Rows are
big-endian int16, int32 or int64 (the narrowest that holds the sentinel)
and every entry is positive, so ``memcmp`` order is numeric order.  It is
also the fingerprint order: at the first run where two fingerprints
differ, either the codes differ at a shared run start, or the shorter run
meets its next code where the longer one meets the sentinel, and the
shorter run sorts first in both.  Equal rows are equal fingerprints.  One
argsort of the rows viewed as ``np.void`` ranks them.

Cells are taken in batches of whole old classes in ascending color order,
so a new id is the ids used by earlier batches plus a rank in the batch.  A
batch holds at most ``_CHUNK_TARGET_BYTES`` of rows, or one class that
needs more alone; the step's working set is about that plus a few n**2
index arrays.  Before a batch is built its working set is estimated, and
above half of physical memory the step raises :class:`ResourceGuardError`
(``wlclosure`` exits 4) instead of running out of memory.

:func:`refine_lockstep` is the one loop that drives every refinement run,
exact or Monte Carlo, single or paired: the kind of step is its parameter.
"""

from __future__ import annotations

import math
import os
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
)

# fingerprint rows in one batch of an exact step; one larger class is its own batch
_CHUNK_TARGET_BYTES = 8 * 2**20
# rows built or compared at a time inside a batch
_BLOCK_BYTES = 2**20
# int64 arrays per cell beside the rows: the step's class order, ids and class
# ends, and a batch's old colors, row order, ranks and scatter index
_CELL_INDEX_BYTES = 40


class RefinementInvariantError(RuntimeError):
    """Internal error: a refinement run violated its structural bounds."""


class ResourceGuardError(RuntimeError):
    """A refinement run or step would need more memory than its budget allows."""


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


def _memory_budget() -> int | None:
    """Bytes one exact step may plan to hold: half of physical memory.

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


def _row_dtype(r: int) -> np.dtype:
    """Narrowest of int16, int32, int64 that holds the sentinel ``(r + 1)**2``.

    ``r <= n**2``, so int64 suffices for any grid that fits in memory.
    """
    sentinel = (r + 1) ** 2
    for dtype in (np.int16, np.int32):
        if sentinel <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _fill_rows(rows, cells, mirror, batch, old, base) -> None:
    """Write the comparable fingerprint rows of the cells ``batch`` into ``rows``.

    Row ``i`` is ``old[i]`` followed by the sorted pair codes
    ``cells[u, w] * base + mirror[v, w]`` of cell ``(u, v) = divmod(batch[i],
    n)``, where each code equal to its left neighbour is replaced by the
    sentinel ``base**2``.  ``rows`` is big-endian, so byte order is numeric
    order.  Built ``_BLOCK_BYTES`` of rows at a time.
    """
    n = len(cells)
    block = max(1, _BLOCK_BYTES // rows.strides[0])
    for s in range(0, len(batch), block):
        u, v = np.divmod(batch[s : s + block], n)
        codes = np.take(cells, u, axis=0)
        codes *= base
        codes += np.take(mirror, v, axis=0)
        codes.sort(axis=1)
        flat = codes.ravel()
        run = np.empty_like(flat)  # base**2 where a code continues a run, else 0
        run[0] = 0
        np.equal(flat[1:], flat[:-1], out=run[1:], casting="unsafe")
        run[::n] = 0  # a row's first code starts a run
        run *= base * base
        np.maximum(flat, run, out=flat)
        rows[s : s + block, 0] = old[s : s + block]
        rows[s : s + block, 1:] = codes


def _rank_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort the rows in byte order: the row order, and each sorted row's
    1-based dense rank (equal rows share one)."""
    keys = rows.view(np.dtype((np.void, rows.strides[0]))).ravel()
    order = np.argsort(keys)
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[0] = 1
    block = max(1, _BLOCK_BYTES // rows.strides[0])
    for s in range(1, len(keys), block):
        ranked = np.take(rows, order[s - 1 : s + block], axis=0).view(keys.dtype).ravel()
        ranks[s : s + block] = ranked[1:] != ranked[:-1]
    np.cumsum(ranks, out=ranks)
    return order, ranks


def classical_step(x: ColorMatrix) -> RefinementOutcome:
    """Split the classes of ``x`` by exact cell fingerprints.

    New ids are the ranks of ``(old color, fingerprint)``: the cells are
    taken one batch of whole old classes at a time, in ascending color
    order, each batch's rows (see :func:`_fill_rows`) are ranked in byte
    order, and a batch's ids start after the previous batch's.  A batch
    holds at most ``_CHUNK_TARGET_BYTES`` of rows, or one class that alone
    needs more.  A batch whose estimated working set, with the step's
    n**2 arrays, exceeds :func:`_memory_budget` raises
    :class:`ResourceGuardError` (:func:`guard_memory`) before anything is
    allocated for it.
    """
    n, r = x.n, x.r
    dtype = _row_dtype(r)
    row_bytes = (n + 1) * dtype.itemsize
    per_cell = row_bytes + _CELL_INDEX_BYTES
    # n**2 arrays, the narrow copies of the cells, and one block's temporaries
    fixed = n * n * (_CELL_INDEX_BYTES + 2 * dtype.itemsize) + 4 * _BLOCK_BYTES
    cap = max(1, _CHUNK_TARGET_BYTES // row_bytes)

    flat = x.cells.ravel()
    by_class = np.argsort(flat, kind="stable")
    class_ends = np.cumsum(np.bincount(flat, minlength=r + 1)[1:])
    cells = x.cells.astype(dtype)
    mirror = np.ascontiguousarray(cells.T)
    ids = np.empty(n * n, dtype=np.int64)
    first = start = offset = 0  # next class, its first cell in ``by_class``, ids used
    while first < r:
        # the most whole classes from ``first`` within ``cap`` cells, at least one
        last = max(int(np.searchsorted(class_ends, start + cap, side="right")), first + 1)
        end = int(class_ends[last - 1])
        guard_memory(
            fixed + (end - start) * per_cell,
            "exact step",
            f"for a batch of {end - start} cells at n={n}",
        )
        batch = by_class[start:end]
        rows = np.empty((end - start, n + 1), dtype=dtype.newbyteorder(">"))
        _fill_rows(rows, cells, mirror, batch, flat[batch], r + 1)
        order, ranks = _rank_rows(rows)
        del rows
        ranks += offset
        ids[batch[order]] = ranks
        offset = int(ranks[-1])
        first, start = last, end
    return RefinementOutcome(offset > r, ColorMatrix(ids.reshape(n, n), offset))


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
