"""Colored complete digraphs and partition-refinement primitives.

A *coloring* assigns a color id to every vertex (the loop ``(u, u)``) and
every arc ``(u, v)`` of the complete directed graph on ``n`` vertices.  It is
stored as an ``n x n`` integer matrix whose ``(u, v)`` cell holds the color of
the arc ``u -> v``.  Color ids are kept contiguous in ``1..r``.

All refinement operations renumber the resulting classes by sorting their
``(old color, new value)`` keys, so output ids depend only on the input color
ids and the graph structure -- never on vertex numbering.  That property is
what makes closures canonical under vertex permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

INT64_MAX = 2**63 - 1


class InputError(ValueError):
    """Malformed input: non-square grid, bad entries, or size mismatch."""


def _as_grid(raw) -> np.ndarray:
    """Coerce raw input to a non-empty square integer ndarray (no renumbering)."""
    arr = np.asarray(raw)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise InputError(f"expected a non-empty square grid, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise InputError(f"expected integer entries, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _first_occurrence_relabel(flat: np.ndarray) -> tuple[np.ndarray, int]:
    """Renumber values to 1..r in order of first appearance.

    Returns the relabeled array and the number of distinct values.
    """
    uniq, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    # rank of each distinct value by its first position in the array
    rank_by_first = np.argsort(np.argsort(first))
    return rank_by_first[inverse] + 1, len(uniq)


def _dense_rank(values: np.ndarray, out: np.ndarray) -> int:
    """Write the 1-based dense rank of each entry of ``values`` into ``out``.

    Equal values share a rank and ranks follow value order, contiguous
    ``1..count``; returns ``count``.  ``out`` may be ``values`` itself.  One
    ``argsort``; the sorted copy then holds the ranks before they are
    scattered back, so the working set is three arrays the size of
    ``values``.
    """
    order = np.argsort(values)
    ranked = values[order]
    starts = np.empty(len(ranked), dtype=bool)
    starts[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    np.copyto(ranked, starts)
    del starts
    np.cumsum(ranked, out=ranked)  # int64 in place: a bool input would be cast to a temporary
    out[order] = ranked
    return int(ranked[-1])


def _lex_rank(primary: np.ndarray, secondary: np.ndarray) -> tuple[np.ndarray, int]:
    """Rank (primary, secondary) pairs lexicographically, 1-based.

    Equal pairs get equal ranks; ranks are contiguous 1..count.  ``primary``
    holds non-negative color ids no larger than its length; ``secondary``
    holds any int64 values.  Each pair is packed into the single int64 key
    ``primary * span + (secondary - min)``, which orders like the pair as
    long as ``(max primary + 1) * span`` fits in int64 (``span`` is the
    secondary's value range).  Otherwise the secondary is first replaced by
    its dense rank ``1..span``, which keeps its order and shrinks ``span`` to
    at most the length; the key ``primary * span + rank`` then lies in
    ``(primary * span, (primary + 1) * span]``, so it still orders like the
    pair, and the bound on ``primary`` keeps it inside int64.
    """
    lo = int(secondary.min())
    span = int(secondary.max()) - lo + 1
    if (int(primary.max()) + 1) * span <= INT64_MAX:
        key = primary * span
        key += secondary - lo
    else:
        key = np.empty(len(secondary), dtype=np.int64)
        span = _dense_rank(secondary, key)
        key += primary * span
    return key, _dense_rank(key, key)


@dataclass(frozen=True, eq=False)
class ColorMatrix:
    """A coloring of the complete digraph: ``cells[u, v]`` is the color of ``u -> v``.

    Invariants (checked on construction): ``cells`` is square int64, and the
    set of entries is exactly ``{1..r}``.  The array is frozen read-only; the
    constructor takes ownership of it.
    """

    cells: np.ndarray
    r: int

    def __post_init__(self) -> None:
        cells = self.cells
        if not isinstance(cells, np.ndarray) or cells.ndim != 2 or cells.shape[0] != cells.shape[1]:
            raise InputError("cells must be a square matrix")
        if cells.shape[0] == 0:
            raise InputError("empty matrix")
        if cells.dtype != np.int64:
            object.__setattr__(self, "cells", cells.astype(np.int64))
            cells = self.cells
        if self.r < 1:
            raise InputError(f"color count must be >= 1, got {self.r}")
        try:
            counts = np.bincount(cells.ravel(), minlength=self.r + 1)
        except ValueError as exc:  # negative entries
            raise InputError("color ids must be positive") from exc
        if len(counts) != self.r + 1 or counts[0] != 0 or not counts[1:].all():
            raise InputError(f"colors must be exactly 1..{self.r}, all used")
        cells.setflags(write=False)

    @property
    def n(self) -> int:
        return self.cells.shape[0]


@dataclass(frozen=True)
class RefinementOutcome:
    """Result of one refinement pass; ``refined`` is true when the class count grew."""

    refined: bool
    result: ColorMatrix


def validate(raw) -> ColorMatrix:
    """Check a raw grid and return its canonical form.

    Entries must be positive integers; they are renumbered to ``1..r`` in
    order of first appearance (row-major), so e.g. ``[[5, 9], [9, 5]]``
    becomes ``[[1, 2], [2, 1]]``.
    """
    arr = _as_grid(raw)
    if arr.min() <= 0:
        raise InputError("color ids must be positive")
    flat, r = _first_occurrence_relabel(arr.ravel())
    return ColorMatrix(flat.reshape(arr.shape), r)


def normalize_by_value(raw) -> ColorMatrix:
    """Like :func:`validate`, but renumber colors by sorted original id.

    Two grids that use the same vocabulary of original ids map to the same
    new ids, regardless of where those ids first occur.  Paired runs rely on
    this to keep color ids aligned across two inputs.
    """
    arr = _as_grid(raw)
    if arr.min() <= 0:
        raise InputError("color ids must be positive")
    uniq, inverse = np.unique(arr.ravel(), return_inverse=True)
    return ColorMatrix((inverse + 1).reshape(arr.shape), len(uniq))


def rainbow_refine(x: ColorMatrix) -> ColorMatrix:
    """Split classes so color determines loop-ness and the reverse arc's color.

    Each cell gets the key ``(own color, reverse color)`` where the reverse
    color of a loop is the sentinel ``r + 1``; keys are ranked
    lexicographically.  The output satisfies :func:`is_rainbow` and is the
    mandatory preprocessing step before any refinement run.
    """
    mirror = x.cells.T.copy()
    np.fill_diagonal(mirror, x.r + 1)
    ranks, r_new = _lex_rank(x.cells.ravel(), mirror.ravel())
    return ColorMatrix(ranks.reshape(x.n, x.n), r_new)


def refine_by(x: ColorMatrix, values: np.ndarray) -> RefinementOutcome:
    """Split the classes of ``x`` by a matrix of per-cell integer values.

    New colors are the lexicographic ranks of ``(old color, value)`` pairs,
    so the result always refines ``x`` and never merges classes.  Cells of
    the same old color with equal values stay together.  ``values`` must be
    an integer ndarray of the same shape as ``x.cells``.
    """
    if not isinstance(values, np.ndarray) or not np.issubdtype(values.dtype, np.integer):
        raise InputError("values must be an integer ndarray")
    if values.shape != x.cells.shape:
        raise InputError(f"value matrix shape {values.shape} != {x.cells.shape}")
    ranks, r_new = _lex_rank(x.cells.ravel(), values.ravel().astype(np.int64, copy=False))
    return RefinementOutcome(r_new > x.r, ColorMatrix(ranks.reshape(x.n, x.n), r_new))


def is_refinement(fine: ColorMatrix, coarse: ColorMatrix) -> bool:
    """True when every class of ``fine`` lies inside a single class of ``coarse``."""
    if fine.n != coarse.n:
        raise InputError("colorings have different sizes")
    pairs = np.unique(
        np.stack([fine.cells.ravel(), coarse.cells.ravel()], axis=1), axis=0
    )
    return len(pairs) == fine.r


def is_same_partition(x: ColorMatrix, y: ColorMatrix) -> bool:
    """True when the two colorings cut the cells into identical classes.

    Color ids are ignored; only the grouping matters.
    """
    if x.n != y.n:
        raise InputError("colorings have different sizes")
    a, _ = _first_occurrence_relabel(x.cells.ravel())
    b, _ = _first_occurrence_relabel(y.cells.ravel())
    return bool(np.array_equal(a, b))


def is_discrete(x: ColorMatrix) -> bool:
    """Every cell has its own color, so no refinement step can split a class."""
    return x.r == x.n * x.n


def is_rainbow(x: ColorMatrix) -> bool:
    """Check the two structural preconditions of a refinement run.

    Diagonal (loop) colors must not appear off the diagonal, and the color of
    ``(u, v)`` must determine the color of ``(v, u)``.
    """
    diag = x.cells.diagonal()
    if x.n > 1:
        off = x.cells[~np.eye(x.n, dtype=bool)]
        if np.intersect1d(diag, off).size:
            return False
    pairs = np.unique(np.stack([x.cells.ravel(), x.cells.T.ravel()], axis=1), axis=0)
    return len(pairs) == x.r


def color_counts(x: ColorMatrix) -> tuple[int, ...]:
    """Cell count per color id, indexed by ``color - 1``."""
    return tuple(np.bincount(x.cells.ravel(), minlength=x.r + 1)[1:].tolist())


def _as_permutation(mapping: Sequence[int], n: int) -> np.ndarray:
    p = np.asarray(mapping, dtype=np.int64)
    if p.shape != (n,) or not np.array_equal(np.sort(p), np.arange(n)):
        raise InputError("mapping must be a permutation of 0..n-1")
    return p


def permute_vertices(x: ColorMatrix, perm: Sequence[int]) -> ColorMatrix:
    """Rename vertex ``u`` to ``perm[u]``, keeping color ids unchanged."""
    p = _as_permutation(perm, x.n)
    out = np.empty_like(x.cells)
    out[np.ix_(p, p)] = x.cells
    return ColorMatrix(out, x.r)


def is_color_isomorphism(x: ColorMatrix, y: ColorMatrix, mapping: Sequence[int]) -> bool:
    """True when ``mapping`` sends ``x`` onto ``y`` with identical color ids.

    Checks ``y[mapping[u], mapping[v]] == x[u, v]`` for every cell.
    """
    if x.n != y.n:
        raise InputError("colorings have different sizes")
    p = _as_permutation(mapping, x.n)
    return bool(np.array_equal(y.cells[np.ix_(p, p)], x.cells))
