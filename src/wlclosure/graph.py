"""Colored complete digraphs and partition-refinement primitives.

A *coloring* assigns a color id to every vertex (the loop ``(u, u)``) and
every arc ``(u, v)`` of the complete directed graph on ``n`` vertices.  It is
stored as an ``n x n`` integer matrix whose ``(u, v)`` cell holds the color of
the arc ``u -> v``.  Color ids are kept contiguous in ``1..r``.

That invariant is checked, by a presence scan of all cells, only on arrays
from outside: ``ColorMatrix(cells, r)``.  The functions here that make ids
-- :func:`validate`, :func:`normalize_by_value`, :func:`rainbow_refine`,
:func:`refine_by` and :func:`permute_vertices` -- hold them in ``1..r`` by
construction (a first-occurrence relabel, a rank or a permutation of cells,
each of which also yields ``r``), so they skip the scan.

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
_UINT64_RANGE = 2**64
# cells handled at a time by the rank passes
_RANK_BLOCK = 2**14


class InputError(ValueError):
    """Malformed input: non-square grid, bad entries, or size mismatch."""


def _as_grid(raw) -> np.ndarray:
    """Coerce raw input to a non-empty square integer ndarray (no renumbering)."""
    arr = np.asarray(raw)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise InputError(f"expected a non-empty square grid, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise InputError(f"expected integer entries, got dtype {arr.dtype}")
    # int32 grids (the parser's, when every id fits) are read as they are
    return arr if arr.dtype == np.int32 else arr.astype(np.int64, copy=False)


def _id_presence(flat: np.ndarray) -> np.ndarray | None:
    """Table ``seen`` with ``seen[i]`` true when id ``i`` occurs in ``flat``.

    Built only for dense ids -- non-negative and at most ``len(flat)``, so the
    table takes at most one byte per entry; ``None`` for sparse ids.
    """
    hi = int(flat.max())
    if flat.min() < 0 or hi > len(flat):
        return None
    seen = np.zeros(hi + 1, dtype=bool)
    seen[flat] = True
    return seen


def first_positions(flat: np.ndarray, top: int) -> np.ndarray:
    """Position of each id ``0..top``'s first occurrence in ``flat``, else ``len(flat)``."""
    first = np.full(top + 1, len(flat), dtype=np.int64)
    np.minimum.at(first, flat, np.arange(len(flat)))
    return first


def _first_occurrence_relabel(flat: np.ndarray) -> tuple[np.ndarray, int]:
    """Renumber values to 1..r in order of first appearance.

    Returns the relabeled int64 array and the number of distinct values.
    Dense ids need no sort of the cells: when every cell is distinct the
    labels are the positions; otherwise :func:`first_positions` finds each
    id's first position and one ``argsort`` over the ``r`` distinct ids
    ranks them.  Sparse ids fall back to ``np.unique``.
    """
    size = len(flat)
    seen = _id_presence(flat)
    if seen is None:
        uniq, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
        # rank of each distinct value by its first position in the array
        rank_by_first = np.argsort(np.argsort(first)).astype(np.int64, copy=False)
        return rank_by_first[inverse] + 1, len(uniq)
    r = int(np.count_nonzero(seen))
    if r == size:
        return np.arange(1, size + 1, dtype=np.int64), r
    ids = np.flatnonzero(seen)
    del seen
    first = first_positions(flat, int(ids[-1]))
    # ``first`` becomes the label table; entries of absent ids are never read
    first[ids[np.argsort(first[ids])]] = np.arange(1, r + 1)
    return first[flat], r


def _argsort_rank(key: np.ndarray, out: np.ndarray) -> int:
    """:func:`_dense_rank` by one ``argsort``: three arrays the size of ``key``."""
    order = np.argsort(key)
    ranked = key[order]
    # run starts in place, from the back, so each block still reads its
    # left neighbour unchanged
    for s in reversed(range(1, len(ranked), _RANK_BLOCK)):
        e = min(s + _RANK_BLOCK, len(ranked))
        ranked[s:e] = ranked[s:e] != ranked[s - 1 : e - 1]
    ranked[0] = 1
    np.cumsum(ranked, out=ranked)
    out[order] = ranked
    return int(ranked[-1])


def _sorted_words(key: np.ndarray, shift: int, ib: int) -> np.ndarray:
    """The words ``(key >> shift) << ib | index``, sorted."""
    words = np.empty(len(key), dtype=np.uint64)
    for s in range(0, len(key), _RANK_BLOCK):
        part = words[s : s + _RANK_BLOCK]
        np.right_shift(key[s : s + _RANK_BLOCK], shift, out=part)
        part <<= ib
        part |= np.arange(s, s + len(part), dtype=np.uint64)
    words.sort()
    return words


def _rank_words(words: np.ndarray, key: np.ndarray, shift: int, ib: int) -> int | None:
    """Turn each sorted word into ``rank << ib | index``; return the count.

    With ``shift == 0`` the high parts are the keys.  Otherwise the keys
    are gathered in word order, one block at a time; a block whose keys
    decrease is sorted by key (it holds the same cells either way), and
    ``None`` is returned, with ``words`` partly rewritten, when a block's
    first key is below the previous block's last.
    """
    mask = np.uint64((1 << ib) - 1)
    count, last = 0, None  # ranks given so far, and the key ranked last
    for s in range(0, len(words), _RANK_BLOCK):
        part = words[s : s + _RANK_BLOCK]
        index = part & mask
        ranked = key[index.view(np.int64)] if shift else part >> ib
        if shift and np.any(ranked[1:] < ranked[:-1]):
            by_key = np.argsort(ranked)
            part[:] = part[by_key]
            index, ranked = index[by_key], ranked[by_key]
        if shift and last is not None and ranked[0] < last:
            return None
        rank = np.empty(len(part), dtype=np.uint64)
        rank[0] = last is None or ranked[0] != last
        np.not_equal(ranked[1:], ranked[:-1], out=rank[1:])
        np.cumsum(rank, out=rank)
        rank += np.uint64(count)
        count, last = int(rank[-1]), ranked[-1]
        rank <<= ib
        np.bitwise_or(rank, index, out=part)
    return count


def _dense_rank(key: np.ndarray, top: int, out: np.ndarray) -> int:
    """Write the 1-based dense rank of each entry of ``key`` into ``out``.

    ``key`` is uint64 with entries at most ``top``; ``out`` is an integer
    array and may be ``key`` itself.  Equal keys share a rank and ranks
    follow key order, contiguous ``1..count``; returns ``count``.

    No ``argsort`` in the common case.  With ``ib`` the bit width of a cell
    index and ``shift`` the fewest low key bits to drop so ``ib`` more fit
    in 64, each cell becomes the word ``(key >> shift) << ib | index``.
    Words are distinct, so one ``np.sort`` orders the cells by ``(key >>
    shift, index)``.  With ``shift == 0`` that is key order, and
    neighbouring high parts give the ranks.  Otherwise the keys are
    gathered in that order, one ``_RANK_BLOCK`` of cells at a time.  Only
    keys that share their top bits can be out of order; a block where they
    are is sorted by key.  If then no block starts below the previous
    block's last key, the cells are in key order, which is all dense ranks
    need (they depend only on which keys are equal, not on the order among
    them); else the ranks come from :func:`_argsort_rank`.  The sorted
    words take ``rank << ib | index`` in place and are scattered into
    ``out``.  The working set is ``key``, the words and a block of
    temporaries; the fallback's is three arrays.
    """
    ib = (len(key) - 1).bit_length()
    if ib >= 32:  # a rank and an index no longer share a word
        return _argsort_rank(key, out)
    shift = max(0, top.bit_length() - (64 - ib))
    words = _sorted_words(key, shift, ib)
    count = _rank_words(words, key, shift, ib)
    if count is None:
        del words
        return _argsort_rank(key, out)
    mask = np.uint64((1 << ib) - 1)
    for s in range(0, len(words), _RANK_BLOCK):
        part = words[s : s + _RANK_BLOCK]
        out[(part & mask).view(np.int64)] = part >> ib
    return count


def _add_scaled(key: np.ndarray, primary: np.ndarray, scale: int) -> None:
    """``key += primary * scale`` in uint64, ``_RANK_BLOCK`` cells at a time."""
    scale = np.uint64(scale)
    for s in range(0, len(key), _RANK_BLOCK):
        key[s : s + _RANK_BLOCK] += primary[s : s + _RANK_BLOCK].view(np.uint64) * scale


def _lex_rank(
    primary: np.ndarray, secondary: np.ndarray, key: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Rank (primary, secondary) pairs lexicographically, 1-based.

    Equal pairs get equal ranks; ranks are contiguous 1..count, returned as
    int64 in ``key`` viewed as int64.  ``key`` is a uint64 buffer of the
    pairs' length that the caller gives up, and may be ``secondary`` viewed
    as uint64; by default a fresh one.  ``primary`` holds non-negative int64
    color ids no larger than its length; ``secondary`` holds any int64
    values.  Each pair is packed into the single uint64 key ``primary *
    span + (secondary - min)``, which orders like the pair as long as the
    key range ``(max primary + 1) * span`` is at most ``2**64`` (``span`` is
    the secondary's value range).  Otherwise the secondary is first replaced
    by its dense rank ``1..span``, which keeps its order and shrinks
    ``span`` to at most the length; the key ``primary * span + rank`` then
    lies in ``(primary * span, (primary + 1) * span]``, so it still orders
    like the pair, and the bound on ``primary`` keeps it inside uint64.
    When the key range is at most the length (few colors, as in rainbow
    preprocessing) the keys are ranked through a presence table and its
    ``cumsum`` instead of a sort.
    """
    lo = int(secondary.min())
    span = int(secondary.max()) - lo + 1
    key_range = (int(primary.max()) + 1) * span
    # uint64 arithmetic wraps modulo 2**64, which leaves every key in
    # [0, 2**64) exact; a span of 2**64 (read as 0) occurs only with every
    # primary 0
    if key is None:
        key = np.empty(len(primary), dtype=np.uint64)
    np.subtract(secondary.view(np.uint64), np.uint64(lo % _UINT64_RANGE), out=key)
    if key_range <= _UINT64_RANGE:
        _add_scaled(key, primary, span % _UINT64_RANGE)
        if key_range <= len(key):
            seen = np.zeros(key_range, dtype=bool)
            seen[key] = True
            rank = np.cumsum(seen, dtype=np.uint64)  # rank[k]: distinct keys <= k
            for s in range(0, len(key), _RANK_BLOCK):
                key[s : s + _RANK_BLOCK] = rank[key[s : s + _RANK_BLOCK]]
            return key.view(np.int64), int(rank[-1])
        top = key_range - 1
    else:
        span = _dense_rank(key, span - 1, key)
        _add_scaled(key, primary, span)
        top = (int(primary.max()) + 1) * span
    count = _dense_rank(key, top, key)
    return key.view(np.int64), count


@dataclass(frozen=True, eq=False)
class ColorMatrix:
    """A coloring of the complete digraph: ``cells[u, v]`` is the color of ``u -> v``.

    Invariants: ``cells`` is square int64, and the set of entries is exactly
    ``{1..r}``.  The constructor checks them, with one presence scan of the
    cells; the array is frozen read-only and the constructor takes ownership
    of it.  Colorings made in this module, whose ids are ranks or relabels
    ``1..r`` by construction, come from :meth:`_ranked` instead, which
    skips the scan.
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
        seen = _id_presence(cells.ravel())  # None: a negative id, or more ids than cells
        if seen is None or len(seen) != self.r + 1 or seen[0] or np.count_nonzero(seen) != self.r:
            raise InputError(f"colors must be exactly 1..{self.r}, all used")
        cells.setflags(write=False)

    @classmethod
    def _ranked(cls, cells: np.ndarray, r: int) -> "ColorMatrix":
        """A coloring of square int64 ``cells`` that hold exactly the ids
        ``1..r`` by construction, with ``r`` from the relabel or rank that
        made them: built without the invariant scan."""
        assert cells.dtype == np.int64, cells.dtype
        x = object.__new__(cls)
        object.__setattr__(x, "cells", cells)
        object.__setattr__(x, "r", r)
        cells.setflags(write=False)
        return x

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
    return ColorMatrix._ranked(flat.reshape(arr.shape), r)


def normalize_by_value(raw) -> tuple[ColorMatrix, np.ndarray]:
    """Like :func:`validate`, but renumber colors by sorted original id.

    Two grids that use the same vocabulary of original ids map to the same
    new ids, regardless of where those ids first occur.  Paired runs rely on
    this to keep color ids aligned across two inputs.  Returns the coloring
    and ``ids``, the sorted distinct original ids (the vocabulary), read off
    the table that renumbers them: id ``ids[k]`` becomes color ``k + 1``.
    """
    arr = _as_grid(raw)
    if arr.min() <= 0:
        raise InputError("color ids must be positive")
    flat = arr.ravel()
    seen = _id_presence(flat)
    if seen is None:
        ids, inverse = np.unique(flat, return_inverse=True)
        inverse = inverse.astype(np.int64, copy=False)
        return ColorMatrix._ranked((inverse + 1).reshape(arr.shape), len(ids)), ids
    rank = np.cumsum(seen, dtype=np.int64)  # rank[i]: distinct ids <= i
    x = ColorMatrix._ranked(rank[flat].reshape(arr.shape), int(rank[-1]))
    return x, np.flatnonzero(seen)


def rainbow_refine(x: ColorMatrix) -> ColorMatrix:
    """Split classes so color determines loop-ness and the reverse arc's color.

    Each cell gets the key ``(own color, reverse color)`` where the reverse
    color of a loop is the sentinel ``r + 1``; keys are ranked
    lexicographically.  The output satisfies :func:`is_rainbow` and is the
    mandatory preprocessing step before any refinement run.
    """
    mirror = x.cells.T.copy()
    np.fill_diagonal(mirror, x.r + 1)
    # the keys, then the ranks, are built in the mirror copy
    ranks, r_new = _lex_rank(x.cells.ravel(), mirror.ravel(), mirror.ravel().view(np.uint64))
    return ColorMatrix._ranked(ranks.reshape(x.n, x.n), r_new)


def _constant_per_class(old: np.ndarray, value: np.ndarray, r: int) -> bool:
    """True when all cells of each class of ``old`` (ids ``1..r``) share a value.

    Each cell's value is scattered to its class's entry; whichever write
    lands, every cell then equals its class's entry exactly when each class
    is constant.  Compared ``_RANK_BLOCK`` cells at a time, stopping at the
    first block with a difference.
    """
    rep = np.empty(r + 1, dtype=value.dtype)
    rep[old] = value
    return all(
        np.array_equal(rep[old[s : s + _RANK_BLOCK]], value[s : s + _RANK_BLOCK])
        for s in range(0, len(old), _RANK_BLOCK)
    )


def refine_by(
    x: ColorMatrix, values: np.ndarray, *, out: np.ndarray | None = None
) -> RefinementOutcome:
    """Split the classes of ``x`` by a matrix of per-cell integer values.

    New colors are the lexicographic ranks of ``(old color, value)`` pairs,
    so the result always refines ``x`` and never merges classes.  Cells of
    the same old color with equal values stay together.  ``values`` must be
    an integer ndarray of the same shape as ``x.cells``; it is not written
    to.  ``out``, a C-contiguous int64 array of that shape (``values``
    itself included), is given up to the call: the rank key is built in it
    and, when a class splits, the result's cells are ``out``.  By default a
    fresh buffer is used.
    """
    if not isinstance(values, np.ndarray) or not np.issubdtype(values.dtype, np.integer):
        raise InputError("values must be an integer ndarray")
    if values.shape != x.cells.shape:
        raise InputError(f"value matrix shape {values.shape} != {x.cells.shape}")
    if out is not None and not (
        out.shape == x.cells.shape and out.dtype == np.int64 and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise InputError("out must be a writeable C-contiguous int64 array of the cells' shape")
    old = x.cells.ravel()
    value = values.ravel().astype(np.int64, copy=False)
    if _constant_per_class(old, value, x.r):
        # the rank of (old, constant) over the ids 1..r is old itself
        return RefinementOutcome(False, x)
    key = None if out is None else out.ravel().view(np.uint64)
    ranks, r_new = _lex_rank(old, value, key)
    return RefinementOutcome(r_new > x.r, ColorMatrix._ranked(ranks.reshape(x.n, x.n), r_new))


def is_refinement(fine: ColorMatrix, coarse: ColorMatrix) -> bool:
    """True when every class of ``fine`` lies inside a single class of ``coarse``."""
    if fine.n != coarse.n:
        raise InputError("colorings have different sizes")
    # as many distinct (fine, coarse) pairs as fine classes
    return _lex_rank(fine.cells.ravel(), coarse.cells.ravel())[1] == fine.r


def is_same_partition(x: ColorMatrix, y: ColorMatrix) -> bool:
    """True when the two colorings cut the cells into identical classes.

    Color ids are ignored.  Equal class counts and ``x`` refining ``y`` make
    the classes correspond one to one.
    """
    if x.n != y.n:
        raise InputError("colorings have different sizes")
    return x.r == y.r and is_refinement(x, y)


def is_discrete(x: ColorMatrix) -> bool:
    """Every cell has its own color, so no refinement step can split a class."""
    return x.r == x.n * x.n


def is_rainbow(x: ColorMatrix) -> bool:
    """Check the two structural preconditions of a refinement run.

    Diagonal (loop) colors must not appear off the diagonal, and the color of
    ``(u, v)`` must determine the color of ``(v, u)``.
    """
    is_loop = np.zeros(x.r + 1, dtype=bool)
    is_loop[x.cells.diagonal()] = True
    if np.count_nonzero(is_loop[x.cells]) != x.n:  # a loop color off the diagonal
        return False
    # as many distinct (color, reverse color) pairs as colors
    return _lex_rank(x.cells.ravel(), x.cells.T.ravel())[1] == x.r


def color_counts(x: ColorMatrix) -> np.ndarray:
    """Cell count per color id, indexed by the id (entry 0 is 0)."""
    return np.bincount(x.cells.ravel(), minlength=x.r + 1)


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
    return ColorMatrix._ranked(out, x.r)


def is_color_isomorphism(x: ColorMatrix, y: ColorMatrix, mapping: Sequence[int]) -> bool:
    """True when ``mapping`` sends ``x`` onto ``y`` with identical color ids.

    Checks ``y[mapping[u], mapping[v]] == x[u, v]`` for every cell.
    """
    if x.n != y.n:
        raise InputError("colorings have different sizes")
    p = _as_permutation(mapping, x.n)
    return bool(np.array_equal(y.cells[np.ix_(p, p)], x.cells))
