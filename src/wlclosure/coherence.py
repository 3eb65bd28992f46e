"""Vectorized verification of the coherence axioms, plus named test fixtures.

A coloring is coherent when (a) loop colors never appear off the diagonal,
(b) the color of an arc determines the color of its reverse arc, and (c) for
any two cells of the same color and any color pair ``(i, j)``, the number of
intermediate vertices ``w`` with ``c(u, w) = i`` and ``c(w, v) = j`` is the
same: exactly when it is rainbow and no refinement step can split it.  Axiom
(c) is the exact step's check of every cell's row against its class's first
cell's; the tests diff every report against a pure-Python counting oracle.
Witnesses name the offending cells (0-based vertex indices), found in
row-major scan order, so a failed check is replayable by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import KERNEL_BYTES, first_row_mismatch
from .graph import ColorMatrix, InputError, first_positions, validate
from .probabilistic import guard_memory

# bytes per cell at the peak, beside two arrays of ids: the reverse colors and
# their gather; the int64 first-cell table (at most one entry per cell) and
# first cells, and a mask
_CHECK_CELL_BYTES = 8 + 8 + 1


@dataclass(frozen=True)
class CoherenceWitness:
    """Two same-colored cells that break an axiom.

    ``kind`` is ``"diagonal_overlap"`` (first cell is a loop, second an arc
    of the same color), ``"transpose_split"`` (the cells' reverse arcs have
    different colors) or ``"profile_mismatch"`` (the cells disagree on the
    count of the ``pair`` of intermediate colors).
    """

    kind: str
    first_cell: tuple[int, int]
    second_cell: tuple[int, int]
    pair: tuple[int, int] | None = None


@dataclass(frozen=True)
class CoherenceReport:
    coherent: bool
    witness: CoherenceWitness | None


def _violation(kind: str, first: int, second: int, n: int, pair=None) -> CoherenceReport:
    cells = divmod(int(first), n), divmod(int(second), n)
    return CoherenceReport(False, CoherenceWitness(kind, *cells, pair))


def verify_coherent(x: ColorMatrix) -> CoherenceReport:
    """Check the three coherence axioms in order, O(n**3 log n) time.

    Each witness is the first offending cell in row-major order, against
    the first loop of its color (``diagonal_overlap``) or the first cell of
    its color.  Axiom (c) is :func:`~wlclosure.classical.first_row_mismatch`,
    with the colors as classes: a row holds the sorted pair codes.  The
    ``pair`` is the smaller code where the two cells' sorted codes first
    differ: the smallest pair whose counts differ.  Above the memory budget
    :func:`~wlclosure.probabilistic.guard_memory` raises first.
    """
    n, r = x.n, x.r
    cell_bytes = _CHECK_CELL_BYTES + 2 * x.cells.itemsize
    guard_memory(n * n * cell_bytes + KERNEL_BYTES, "exact check", f"at n={n}")
    flat = x.cells.ravel()
    loops = x.cells.diagonal()
    overlap = np.isin(x.cells, loops)
    np.fill_diagonal(overlap, False)
    if overlap.any():
        k = int(np.argmax(overlap))
        return _violation("diagonal_overlap", np.argmax(loops == flat[k]) * (n + 1), k, n)
    first = first_positions(flat, r, r)
    ref = first[flat]
    reverse = x.cells.T.ravel()
    split = reverse[ref] != reverse
    if split.any():
        k = int(np.argmax(split))
        return _violation("transpose_split", ref[k], k, n)
    del ref, reverse, split

    mismatch = first_row_mismatch(x, flat, first)
    if mismatch is None:
        return CoherenceReport(True, None)
    k, f = int(mismatch[0][0]), int(mismatch[1][0])
    # pair codes reach (r + 1)**2 - 1, so the narrow ids are widened
    codes = [x.cells[c // n].astype(np.int64) * (r + 1) + x.cells[:, c % n] for c in (f, k)]
    a, b = np.sort(codes, axis=1)
    pair = divmod(int(np.minimum(a, b)[np.argmax(a != b)]), r + 1)
    return _violation("profile_mismatch", f, k, n, pair)


def _fixture_trivial(n: int) -> ColorMatrix:
    if n < 1:
        raise InputError("trivial fixture needs n >= 1")
    return validate(2 - np.eye(n, dtype=np.int64))


def _fixture_cyclic(n: int) -> ColorMatrix:
    if n < 1:
        raise InputError("cyclic fixture needs n >= 1")
    u = np.arange(n)
    return validate((u[None, :] - u[:, None]) % n + 1)


def _fixture_path(n: int) -> ColorMatrix:
    if n < 2:
        raise InputError("path fixture needs n >= 2")
    u = np.arange(n)
    return validate(np.minimum(np.abs(u[None, :] - u[:, None]), 2) + 1)


def _fixture_cycle5() -> ColorMatrix:
    dist = _fixture_cyclic(5).cells - 1  # (v - u) % 5
    return validate(np.minimum(dist, 5 - dist) + 1)


def _fixture_petersen() -> ColorMatrix:
    # vertices are the 2-subsets of 0..4, adjacent when disjoint
    pairs = np.array([(a, b) for a in range(5) for b in range(a + 1, 5)])
    meet = (pairs[:, None, :, None] == pairs[None, :, None, :]).any(axis=(2, 3))
    grid = np.where(meet, 3, 2)
    np.fill_diagonal(grid, 1)
    return validate(grid)


def _fixture_random(n: int, r: int, seed: int) -> ColorMatrix:
    if n < 1 or r < 1:
        raise InputError("random fixture needs n >= 1 and r >= 1")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    return validate(rng.integers(1, r + 1, size=(n, n), dtype=np.int64))


_FIXTURES = {
    "trivial": (_fixture_trivial, ("n",)),
    "cyclic": (_fixture_cyclic, ("n",)),
    "path": (_fixture_path, ("n",)),
    "cycle5": (_fixture_cycle5, ()),
    "petersen": (_fixture_petersen, ()),
    "random": (_fixture_random, ("n", "r", "seed")),
}


def fixture_names() -> tuple[str, ...]:
    return tuple(_FIXTURES)


def make_fixture(name: str, *params: int) -> ColorMatrix:
    """Build a named example coloring.

    ``trivial(n)`` and ``cyclic(n)`` are coherent for every n, as are the
    two strongly regular examples ``cycle5`` and ``petersen`` (loop/edge/
    non-edge colorings); ``path(n)`` is rainbow but not coherent for n >= 3;
    ``random(n, r, seed)`` is an arbitrary seeded coloring.
    """
    if name not in _FIXTURES:
        raise InputError(f"unknown fixture {name!r}, expected one of {sorted(_FIXTURES)}")
    builder, arity = _FIXTURES[name]
    if len(params) != len(arity):
        wanted = ", ".join(arity) if arity else "no parameters"
        raise InputError(f"fixture {name!r} takes {wanted}, got {len(params)} values")
    return builder(*params)
