"""Exact refinement of colored complete digraphs: one Las Vegas run.

One refinement step gives every cell ``(u, v)`` the multiset of color pairs
``{(c(u, w), c(w, v)) : w}`` -- its fingerprint -- and splits classes whose
cells disagree.  Iterating until no class splits yields the coherent closure.

:func:`classical_closure` runs Monte Carlo steps,
:func:`~wlclosure.probabilistic.probabilistic_step`, on one stream with a
fixed seed and the largest ``m`` for which ``n * m**2 <= 2**53``, so every
row block of the product is one exact GEMM.  Equal fingerprints always give
equal products, so the exact closure refines every iterate.  A quiet step
is confirmed by :func:`classical_step`, one exact step, which first checks
the coloring P stable under the exact step: each cell's row, its ``n`` pair
codes ``c(u, w) * (r + 1) + c(w, v)`` sorted, is compared with the row of
its class's first cell (:func:`first_row_mismatch`), and equal rows are
equal fingerprints.  A passing check makes P coherent, and P refines the
closure, the coarsest coherent refinement of the input, so P is the
closure.  A differing row means the draw hid a split: two cells' products
differ by a nonzero polynomial of degree 2 in the drawn values, which a
draw zeroes with probability at most ``2/m`` (Schwartz-Zippel), and ``m``
is at least 440,876 at every admitted ``n``.  The exact step then refines
its product candidate by further draws of a fresh exact stream until the
rows agree, and the run steps on; it raises :class:`RefinementInvariantError`
after four draws in a row that split nothing (``_QUIET_DRAWS``, below
``2**-71`` likely).  An answer is always exact; only the time is random (a
Las Vegas algorithm).  The streams' positions depend only on the class
counts drawn so far, and products and rows move with the vertices, so the
ids are deterministic and canonical under vertex permutation.  The same
kernel checks axiom (c) in :func:`wlclosure.coherence.verify_coherent`.

Before a run or step allocates, its working set -- a Monte Carlo step's,
which covers the check's copies of the ids, plus the kernel's blocks -- is
estimated, and above half of physical memory it raises
:class:`~wlclosure.graph.ResourceGuardError` (``wlclosure`` exits 4) instead
of running out of memory.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .graph import ColorMatrix, RefinementOutcome, first_positions, refine_by
from .probabilistic import (
    FLOAT64_EXACT,
    RefinementInvariantError,
    SplitMix64Stream,
    WlResult,
    draw_substitution,
    guard_memory,
    monte_carlo_bytes,
    numeric_product,
    probabilistic_step,
    refine_lockstep,
)

# rows built or compared at a time
_BLOCK_BYTES = 2**20
# bytes :func:`first_row_mismatch` holds at its peak: blocks of the first cells'
# rows gathered to the cells', the cells' rows and a temporary, and indexes
KERNEL_BYTES = 4 * _BLOCK_BYTES
# the seed of every exact run's and step's stream; any seed gives the same
# partitions, a fixed one the same ids
_SEED = 0
# quiet draws in a row after which an exact step raises: while rows disagree a
# draw splits with probability at least 1 - 2/m, and m >= 440,876 (n <= 46,340),
# so a valid step makes this many in a row with probability (2/m)**4 < 2**-71
_QUIET_DRAWS = 4


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


def first_row_mismatch(x: ColorMatrix, classes: np.ndarray, first: np.ndarray):
    """The first cell, in row-major order, whose row in ``x`` differs from
    that of its class's first cell: that cell, its first cell and the two
    rows, each the ``n`` pair codes ``x(u, w) * (x.r + 1) + x(w, v)``
    sorted, or ``None`` when every row agrees.

    ``classes`` is a flat class id per cell and ``first[c]`` the first cell
    of class ``c``; first cells, so all singleton classes, are skipped.
    """
    n, base = x.n, x.r + 1
    cells = x.cells.astype(_row_dtype(x.r))
    mirror = np.ascontiguousarray(cells.T)
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
        own_rows = _sorted_codes(cells, mirror, own, base)
        differs = (rows != own_rows).any(axis=1)
        if differs.any():
            i = int(np.argmax(differs))
            return int(own[i]), int(ref[i]), own_rows[i], rows[i]
    return None


def _exact_draws(n: int) -> tuple[int, SplitMix64Stream]:
    """The exact stream at size ``n``: ``m``, the largest value for which
    ``n * m**2 <= 2**53``, and a fresh stream seeded with ``_SEED``."""
    return isqrt(FLOAT64_EXACT // n), SplitMix64Stream(_SEED)


def _rows_agree(x: ColorMatrix, candidate: ColorMatrix) -> bool:
    """Every class of ``candidate`` has equal rows in ``x``."""
    classes, r = candidate.cells.ravel(), candidate.r
    return first_row_mismatch(x, classes, first_positions(classes, r, r)) is None


def _guard_step(n: int) -> None:
    guard_memory(monte_carlo_bytes(n, 1) + KERNEL_BYTES, "exact step", f"at n={n}")


def classical_step(x: ColorMatrix) -> RefinementOutcome:
    """Split the classes of ``x`` by exact cell fingerprints.

    A coloring whose rows agree is stable: it comes back unchanged after
    one check and no product.  Otherwise the candidate, first ``x``, is
    refined by the ranks of ``(candidate id, product)`` under the next draw
    of a fresh exact stream until its rows in ``x`` agree; the ids are
    those ranks.  A check that fails after ``_QUIET_DRAWS`` draws in a row
    that split nothing raises :class:`RefinementInvariantError`.  Over the
    memory budget, :func:`~wlclosure.probabilistic.guard_memory` raises
    before allocating.
    """
    _guard_step(x.n)
    m, rng = _exact_draws(x.n)
    candidate, quiet = x, 0
    while not _rows_agree(x, candidate):
        if quiet == _QUIET_DRAWS:
            raise RefinementInvariantError(f"{quiet} exact draws in a row split nothing")
        # the product is freed as refine_by returns, before the next check
        out = refine_by(candidate, numeric_product(x, draw_substitution(x.r, m, rng)))
        candidate, quiet = out.result, 0 if out.refined else quiet + 1
    return RefinementOutcome(candidate.r > x.r, candidate)


def _las_vegas_steps(n: int):
    """The exact run's driver step: a Monte Carlo step on the exact stream,
    whose quiet steps :func:`classical_step` confirms or replaces.
    :func:`~wlclosure.probabilistic.refine_lockstep` steps no discrete
    coloring, so none is checked."""
    m, rng = _exact_draws(n)

    def step(colorings: tuple[ColorMatrix, ...]) -> list[RefinementOutcome]:
        (x,) = colorings
        out = probabilistic_step(x, m, rng)
        # by its global name, which a tracer may rebind
        return [out if out.refined else classical_step(x)]

    return step


def classical_closure(x: ColorMatrix) -> WlResult:
    """Refine ``x`` (after rainbow preprocessing) until no class splits.

    The exact mode of :func:`~wlclosure.probabilistic.refine_lockstep`:
    patience 1, no budget, its step guarded before rainbow preprocessing.
    Steps draw from the exact stream, unchecked until one is quiet; that
    step is replaced by :func:`classical_step` on the same coloring, which
    checks its rows once and, on a mismatch, takes the exact step, and the
    run steps on.  A discrete coloring stops the run, since it cannot split.
    """
    _guard_step(x.n)
    (result,), _, _ = refine_lockstep((x,), _las_vegas_steps(x.n), patience=1)
    return result
