"""Exact refinement of colored complete digraphs: one Las Vegas run.

One refinement step gives every cell ``(u, v)`` the multiset of color pairs
``{(c(u, w), c(w, v)) : w}`` -- its fingerprint -- and splits classes whose
cells disagree.  Iterating until no class splits yields the coherent closure.

:func:`classical_closure` runs Monte Carlo steps under one fixed
substitution, :func:`_exact_substitution`, whose values are a hash of the
color id, until a step is quiet, and then checks the result once.  Equal
fingerprints always give equal products, so the exact closure refines every
iterate.  :func:`row_mismatches` checks whether the quiet coloring P is
stable under the exact step: each cell's row, its ``n`` pair codes
``c(u, w) * (r + 1) + c(w, v)`` sorted, is compared with the row of its
class's first cell, and equal rows are equal fingerprints.  A differing row
is a product collision (probability at most ``2/m`` for two fingerprints):
only its class is ranked by its rows and split, and the run steps on.  A
passing check makes P coherent, and P refines the closure, the coarsest
coherent refinement of the input, so P is the closure.  The answer is always
exact; only the time is random (a Las Vegas algorithm).  Products and rows
move with the vertices, so the ids are canonical under vertex permutation.
:func:`classical_step` is one product step with its check; the same kernel
checks coherence axiom (c) in :func:`wlclosure.coherence.verify_coherent`.

Before a run or step allocates, its working set -- a Monte Carlo step's,
which covers the check's copies of the ids, plus the kernel's blocks -- is
estimated, and above half of physical memory it raises
:class:`~wlclosure.graph.ResourceGuardError` (``wlclosure`` exits 4) instead
of running out of memory.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .graph import ColorMatrix, RefinementOutcome, first_positions, id_dtype, refine_by
from .probabilistic import (
    _DRAW_BLOCK,
    _TABLE_DTYPE,
    RandomSubstitution,
    WlResult,
    _splitmix64,
    guard_memory,
    monte_carlo_bytes,
    numeric_product,
    refine_lockstep,
)

# rows built or compared at a time
_BLOCK_BYTES = 2**20
# bytes :func:`row_mismatches` holds at its peak: blocks of the first cells'
# rows gathered to the cells', the cells' rows and a temporary, and indexes
KERNEL_BYTES = 4 * _BLOCK_BYTES


def _row_dtype(r: int) -> np.dtype:
    """Narrowest of int16, int32, int64 that holds every pair code, the
    largest being ``(r + 1)**2 - 1``.

    ``r <= n**2``, so int64 suffices for any grid that fits in memory.
    """
    for dtype in (np.int16, np.int32):
        if (r + 1) ** 2 - 1 <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _sorted_codes(cells, mirror, batch, base) -> np.ndarray:
    """One row per cell ``(u, v) = divmod(batch[i], n)``: the codes
    ``cells[u, w] * base + mirror[v, w]`` over all ``w``, sorted."""
    u, v = np.divmod(batch, len(cells))
    codes = np.take(cells, u, axis=0)
    codes *= base
    codes += np.take(mirror, v, axis=0)
    codes.sort(axis=1)
    return codes


def _narrow(x: ColorMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The cells of ``x`` and their transpose, in the row dtype."""
    cells = x.cells.astype(_row_dtype(x.r))
    return cells, np.ascontiguousarray(cells.T)


def row_mismatches(x: ColorMatrix, classes: np.ndarray, first: np.ndarray):
    """Yield, block by block in row-major order, the cells whose row in ``x``
    differs from that of their class's first cell, and those first cells.

    ``classes`` is a flat class id per cell and ``first[c]`` the first cell
    of class ``c``; first cells, so all singleton classes, are skipped.
    """
    n, base = x.n, x.r + 1
    cells, mirror = _narrow(x)
    block = max(1, _BLOCK_BYTES // cells[0].nbytes)  # cells whose rows fill one block
    for s in range(0, n * n, block):
        own = np.arange(s, min(s + block, n * n))
        ref = first[classes[own]]
        keep = ref != own
        own, ref = own[keep], ref[keep]
        if not len(own):
            continue
        # each first cell's row is built once per block
        firsts, which = np.unique(ref, return_inverse=True)
        rows = _sorted_codes(cells, mirror, firsts, base)[which]
        differs = (rows != _sorted_codes(cells, mirror, own, base)).any(axis=1)
        if differs.any():
            yield own[differs], ref[differs]


def _rank_rows(rows: np.ndarray) -> np.ndarray:
    """Each row's 0-based dense rank in byte order (equal rows share one)."""
    keys = rows.view(np.dtype((np.void, rows.strides[0]))).ravel()
    return np.unique(keys, return_inverse=True)[1]


def _split_collisions(x: ColorMatrix, candidate: ColorMatrix, bad: np.ndarray) -> ColorMatrix:
    """Split each class ``bad`` of ``candidate`` by its cells' rows in ``x``.

    New ids are the ranks of ``(candidate id, row rank)``: a cell's row rank
    is the rank of its row within its class in byte order, 0 outside ``bad``.
    """
    n = x.n
    cells, mirror = _narrow(x)
    flat = candidate.cells.ravel()
    local = np.zeros(n * n, dtype=id_dtype(n * n))
    for c in bad:
        members = np.flatnonzero(flat == c)
        # two arrays of rows at a time (the rows and a temporary, then the
        # rows and their sorted copy) and a few index arrays
        guard_memory(
            len(members) * (2 * n * cells.itemsize + 40),
            "exact step",
            f"to split a class of {len(members)} cells at n={n}",
        )
        local[members] = _rank_rows(_sorted_codes(cells, mirror, members, x.r + 1))
    return refine_by(candidate, local.reshape(n, n)).result


def _exact_substitution(n: int, r: int) -> RandomSubstitution:
    """The exact step's substitution for colors ``1..r``: color ``c`` gets
    ``1 + splitmix64(2c) % m`` on the left and ``1 + splitmix64(2c + 1) % m``
    on the right, with the largest ``m`` for which ``n * m**2 <= 2**53``, so
    every row block of the product is one exact GEMM.  The values, below
    ``2**27``, are held in the Monte Carlo draw's uint32 tables.

    A fixed function of the color id, so a quiet step repeated on the same
    coloring stays quiet.  Any values give the same partitions; the mixer is
    the Monte Carlo stream's, :func:`~wlclosure.probabilistic._splitmix64`.
    """
    m = isqrt(2**53 // n)
    tables = np.zeros((2, r + 1), dtype=_TABLE_DTYPE)
    for side in (0, 1):
        # a block of colors at a time, so the mix's temporaries stay small
        # beside the tables, as in the Monte Carlo stream's draw
        for lo in range(1, r + 1, _DRAW_BLOCK):
            hi = min(lo + _DRAW_BLOCK, r + 1)
            z = _splitmix64(np.arange(2 * lo + side, 2 * hi + side, 2, dtype=np.uint64))
            z %= np.uint64(m)
            z += np.uint64(1)
            tables[side, lo:hi] = z
    return RandomSubstitution(m, *tables)


def _guard_step(n: int) -> None:
    guard_memory(monte_carlo_bytes(n, 1) + KERNEL_BYTES, "exact step", f"at n={n}")


def _product_step(x: ColorMatrix) -> RefinementOutcome:
    """The Monte Carlo step under :func:`_exact_substitution`: ranks of
    ``(old color, product)``, not checked."""
    return refine_by(x, numeric_product(x, _exact_substitution(x.n, x.r)), overwrite_values=True)


def _checked(x: ColorMatrix, candidate: ColorMatrix) -> RefinementOutcome:
    """``candidate``, a step's result on ``x``, with each class whose cells'
    rows in ``x`` differ split by :func:`_split_collisions`."""
    classes, r = candidate.cells.ravel(), candidate.r
    bad = np.zeros(r + 1, dtype=bool)
    for own, _ in row_mismatches(x, classes, first_positions(classes, r, r)):
        bad[classes[own]] = True
    if bad.any():
        candidate = _split_collisions(x, candidate, np.flatnonzero(bad))
    return RefinementOutcome(candidate.r > x.r, candidate)


def classical_step(x: ColorMatrix) -> RefinementOutcome:
    """Split the classes of ``x`` by exact cell fingerprints.

    New ids are the ranks of ``(old color, product)`` under
    :func:`_exact_substitution`, a candidate class whose rows differ split
    by :func:`_split_collisions`.  Over the memory budget,
    :func:`~wlclosure.probabilistic.guard_memory` raises before allocating.
    """
    _guard_step(x.n)
    return _checked(x, _product_step(x).result)


def _las_vegas_steps(colorings: tuple[ColorMatrix, ...]) -> list[RefinementOutcome]:
    """A step of the exact run: the product step, checked only when it is
    quiet, so that a quiet outcome is stable under the exact step.
    :func:`~wlclosure.probabilistic.refine_lockstep` steps no discrete
    coloring, so none is checked."""
    (x,) = colorings
    out = _product_step(x)
    return [out if out.refined else _checked(x, x)]


def classical_closure(x: ColorMatrix) -> WlResult:
    """Refine ``x`` (after rainbow preprocessing) until no class splits.

    The exact mode of :func:`~wlclosure.probabilistic.refine_lockstep`:
    patience 1, no budget, its step guarded before rainbow preprocessing.
    Product steps run unchecked until one is quiet; that step checks its
    coloring's rows once, and a check that splits counts as its step's
    split, after which the run steps on.  A discrete coloring stops the run
    before another step, since it cannot split.
    """
    _guard_step(x.n)
    (result,), _, _ = refine_lockstep((x,), _las_vegas_steps, patience=1)
    return result
