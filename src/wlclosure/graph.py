"""Colored complete digraphs and partition-refinement primitives.

A *coloring* assigns a color id to every vertex (the loop ``(u, u)``) and
every arc ``(u, v)`` of the complete directed graph on ``n`` vertices.  It is
stored as an ``n x n`` integer matrix whose ``(u, v)`` cell holds the color of
the arc ``u -> v``.  Color ids are kept contiguous in ``1..r`` and stored in
:func:`id_dtype` of ``r``, the smallest unsigned integer type that holds
``r``: one byte per cell up to 255 colors.  Arithmetic on ids that could
leave that type (the rainbow sentinel ``r + 1``, packed rank keys, pair
codes) is done in a wider one.

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
from math import isqrt
from typing import Sequence

import numpy as np

INT64_MAX = 2**63 - 1
_UINT64_RANGE = 2**64
# cells handled at a time by the block-wise passes (ranks, gathers, positions)
_RANK_BLOCK = 2**14
# most cells of a grid from outside; every coloring is made from one of the
# same size, so a rank and a cell index share a uint64 word in _dense_rank
MAX_CELLS = 2**31


class InputError(ValueError):
    """Malformed input: non-square grid, bad entries, or size mismatch."""


class ResourceGuardError(RuntimeError):
    """A grid past ``MAX_CELLS`` cells, or a run or step over its memory budget."""


def check_size(n: int) -> None:
    """Refuse an ``n x n`` grid of more than ``MAX_CELLS`` cells (n > 46,340)."""
    if n * n > MAX_CELLS:
        raise ResourceGuardError(f"a grid at n={n} is over the size limit, n <= {isqrt(MAX_CELLS)}")


def _as_grid(raw) -> np.ndarray:
    """A grid from outside as an ndarray, checked non-empty, square, integer,
    of at most ``MAX_CELLS`` cells (before any pass) and positive ids."""
    arr = np.asarray(raw)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise InputError(f"expected a non-empty square grid, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise InputError(f"expected integer entries, got dtype {arr.dtype}")
    check_size(arr.shape[0])
    # grids of narrower ids (the parser's int32, a coloring's cells) are read
    # as they are; uint64 ids are read as int64, so those above its range are
    # negative and refused
    arr = arr if arr.dtype.itemsize < 8 else arr.astype(np.int64, copy=False)
    if arr.min() <= 0:
        raise InputError("color ids must be positive")
    return arr


def _id_presence(flat: np.ndarray, top: int) -> np.ndarray:
    """Table ``seen`` with ``seen[i]`` true when id ``i`` occurs in ``flat``,
    whose ids are non-negative and at most ``top``."""
    seen = np.zeros(top + 1, dtype=bool)
    for s in range(0, len(flat), _RANK_BLOCK):  # a block of ids cast to intp scatters faster
        seen[flat[s : s + _RANK_BLOCK].astype(np.intp, copy=False)] = True
    return seen


def id_dtype(r: int) -> np.dtype:
    """Dtype of the cells of a coloring with ``r`` colors: the smallest
    unsigned integer type that holds ``r`` (uint8 up to 255, uint16 up to
    65,535, uint32 beyond: a grid has at most ``MAX_CELLS`` cells)."""
    return np.min_scalar_type(r)


def gather(table: np.ndarray, index: np.ndarray, dtype=None) -> np.ndarray:
    """``table[index]`` in ``dtype`` (by default the table's) for a 1-D or
    2-D index of any integer dtype whose entries all lie in ``table``.

    ``np.take`` about one ``_RANK_BLOCK`` of the index at a time, converted
    to intp in cache: fancy indexing by a narrow index took up to twice as
    long.  A 2-D index is taken in whole rows, so a strided one (columns of
    a matrix) is not copied first.  ``mode="clip"`` skips the bounds check,
    which would also buffer the output; an entry out of range would be
    clipped, not reported.  Into another dtype, each block is taken into
    one scratch block in the table's dtype and cast from there in cache, so
    no cast copy of the table is made.
    """
    out = np.empty(index.shape, dtype=table.dtype if dtype is None else dtype)
    step = _RANK_BLOCK if index.ndim == 1 else max(1, _RANK_BLOCK // max(1, index.shape[1]))
    scratch = None
    if out.dtype != table.dtype:
        scratch = np.empty((min(step, len(index)),) + index.shape[1:], dtype=table.dtype)
    for s in range(0, len(index), step):
        block = out[s : s + step]
        if scratch is None:
            np.take(table, index[s : s + step], out=block, mode="clip")
        else:
            np.take(table, index[s : s + step], out=scratch[: len(block)], mode="clip")
            block[...] = scratch[: len(block)]
    return out


def first_positions(flat: np.ndarray, top: int, present: int) -> np.ndarray:
    """Position of each id ``0..top``'s first occurrence in ``flat``, else
    ``len(flat)``; ``present`` is the number of distinct ids in ``flat``.

    ``flat`` is scanned one ``_RANK_BLOCK`` at a time, and the scan stops
    once ``present`` first occurrences are found.  A block's positions that
    its ids keep are the first occurrences it adds, so the count costs
    O(block), not O(top).
    """
    first = np.full(top + 1, len(flat), dtype=np.int64)
    found = 0
    for s in range(0, len(flat), _RANK_BLOCK):
        block = flat[s : s + _RANK_BLOCK]
        positions = np.arange(s, s + len(block))
        np.minimum.at(first, block, positions)
        found += int(np.count_nonzero(first[block] == positions))
        if found == present:
            break
    return first


def _in_first_occurrence_order(flat: np.ndarray, r: int) -> bool:
    """True when the positive ids of ``flat``, at most ``r``, are the
    canonical ``1..r`` by first occurrence: the first cell is 1, each cell
    exceeds the running maximum of the cells before it by at most one, and
    that maximum reaches ``r``.  Checked one ``_RANK_BLOCK`` at a time, and
    only until the running maximum is ``r``: no later cell can exceed it."""
    top = 0
    for s in range(0, len(flat), _RANK_BLOCK):
        if top == r:
            break
        block = flat[s : s + _RANK_BLOCK]
        bound = np.maximum.accumulate(block)
        np.maximum(bound, top, out=bound)
        # ids are at least 1, so ``block - 1`` cannot wrap where ``bound + 1`` could
        if block[0] > top + 1 or (block[1:] - 1 > bound[:-1]).any():
            return False
        top = int(bound[-1])
    return top == r


def _first_occurrence_relabel(flat: np.ndarray) -> tuple[np.ndarray, int]:
    """Renumber positive values to 1..r in order of first appearance.

    Returns the relabeled array, in :func:`id_dtype` of ``r``, and the
    number ``r`` of distinct values.  Sparse ids, above the cell count, are
    first ranked by value (:func:`_rank`), which keeps each id's cells.
    Ids already in that order (:func:`_in_first_occurrence_order`) are only
    narrowed, and not copied when they have that dtype.  Otherwise, when
    every cell is distinct the labels are the positions; else the labels
    are the ranks (:func:`_dense_rank`) of the ids' first positions
    (:func:`first_positions`), absent ids sharing the last rank ``r + 1``,
    gathered into the cells in :func:`id_dtype` of ``r``.
    """
    top = int(flat.max())
    if top > len(flat):
        flat, top = _rank(flat, top)
    if _in_first_occurrence_order(flat, top):
        return flat.astype(id_dtype(top), copy=False), top
    seen = _id_presence(flat, top)
    r = int(np.count_nonzero(seen))
    del seen
    if r == len(flat):
        return np.arange(1, r + 1, dtype=id_dtype(r)), r
    # a sort, not _rank's presence table: the key has up to one entry a cell
    labels = _dense_rank(first_positions(flat, top, r).view(np.uint64), len(flat))[0]
    return gather(labels, flat, id_dtype(r)), r


def _rank_sorted_words(words: np.ndarray, ib: int) -> int:
    """Turn the sorted words ``high << ib | index`` into ``rank << ib |
    index`` in place, with ``rank`` the dense rank of ``high`` among them,
    from 1; return the count.

    One ``_RANK_BLOCK`` at a time, carrying only the last high part: a
    block whose high parts all differ from their left neighbours takes the
    next ranks from ``arange``, any other the ``cumsum`` of its changes.
    """
    mask = np.uint64((1 << ib) - 1)
    count, last = 0, None
    for s in range(0, len(words), _RANK_BLOCK):
        part = words[s : s + _RANK_BLOCK]
        high = part >> ib
        first = count + bool(last is None or high[0] != last)  # the first word's rank
        last = high[-1]
        new = high[1:] != high[:-1]
        if new.all():
            rank = np.arange(first, first + len(part), dtype=np.uint64)
        else:
            rank = np.empty(len(part), dtype=np.uint64)
            rank[0] = first
            np.cumsum(new, out=rank[1:])
            rank[1:] += np.uint64(first)
        count = int(rank[-1])
        part &= mask
        rank <<= ib
        part |= rank
    return count


def _dense_rank(key: np.ndarray, top: int) -> tuple[np.ndarray, int]:
    """The 1-based dense rank of each entry of ``key``, and their count.

    ``key`` is uint64 with entries at most ``top``; the caller gives it up.
    The ranks are returned in a fresh array in :func:`id_dtype` of the
    count.  Equal keys share a rank and ranks follow key order, contiguous
    ``1..count``.

    ``key`` has at most ``MAX_CELLS`` entries, so ``ib``, the bit width of a
    cell index, is at most 31 and a rank and an index share a word.  With
    ``shift`` the fewest low key bits to drop so ``ib`` more fit in 64, the
    low bits are saved in their own narrow array and each key is rewritten
    in place into the word ``(key >> shift) << ib | index``.  Words are
    distinct, so one ``np.sort`` orders the cells by ``(key >> shift,
    index)``, and neighbouring words give the dense ranks of the high parts
    ``key >> shift``, one ``_RANK_BLOCK`` at a time; each word takes ``rank
    << ib | index`` in place.  With ``shift == 0``, or no two high parts
    equal, these are the keys' ranks.  Otherwise the next round ranks the
    keys ``rank << shift | low``, which order like ``key`` and, as ranks are
    below ``2**ib``, drop fewer bits: each word is rewritten into ``(rank <<
    shift | low) >> shift'`` and its index, with ``shift'`` the bits still
    to drop, and sorted again.  The words are then in order outside runs of
    tied high parts, which a stable sort finds.  ``shift'`` is 0 unless
    ``2 * ib + shift`` exceeds 64.  The working set is ``key``, the low
    bits, the ranks and a block of temporaries.
    """
    ib = (len(key) - 1).bit_length()
    mask = np.uint64((1 << ib) - 1)
    shift = max(0, top.bit_length() - (64 - ib))
    low = np.empty(len(key), dtype=id_dtype((1 << shift) - 1)) if shift else None
    low_mask = np.uint64((1 << shift) - 1)
    for s in range(0, len(key), _RANK_BLOCK):
        part = key[s : s + _RANK_BLOCK]
        if shift:
            np.bitwise_and(part, low_mask, out=low[s : s + _RANK_BLOCK], casting="unsafe")
            part >>= shift
        part <<= ib
        part |= np.arange(s, s + len(part), dtype=np.uint64)
    key.sort()
    while (count := _rank_sorted_words(key, ib)) < len(key) and shift:
        drop = max(0, count.bit_length() + shift - (64 - ib))
        for s in range(0, len(key), _RANK_BLOCK):
            part = key[s : s + _RANK_BLOCK]
            index = part & mask
            part >>= ib
            part <<= shift
            part |= gather(low, index.view(np.int64))
            part >>= drop
            part <<= ib
            part |= index
        shift = drop
        low &= low.dtype.type((1 << shift) - 1)  # the low bits of the next keys
        key.sort(kind="stable")
    del low
    ranks = np.empty(len(key), dtype=id_dtype(count))
    for s in range(0, len(key), _RANK_BLOCK):
        part = key[s : s + _RANK_BLOCK]
        # cast before the scatter: a scatter that casts is slower
        ranks[(part & mask).view(np.int64)] = (part >> ib).astype(ranks.dtype, copy=False)
    return ranks, count


def _rank(key: np.ndarray, top: int) -> tuple[np.ndarray, int]:
    """The 1-based dense rank of each entry of ``key``, non-negative and at
    most ``top``, and their count, as :func:`_dense_rank` returns them.

    A ``top`` below the key count (dense ids, few pairs) takes a presence
    table of the keys (:func:`_id_presence`) and its ``cumsum`` and only
    reads ``key``.
    Otherwise :func:`_dense_rank` sorts ``key``, which the caller gives up,
    or a uint64 copy of a key of another dtype.
    """
    if top >= len(key):
        return _dense_rank(key.astype(np.uint64, copy=False), top)
    index = key.view(np.int64) if key.dtype == np.uint64 else key  # int64 indexes faster
    seen = _id_presence(index, top)
    count = int(np.count_nonzero(seen))
    rank = np.cumsum(seen, dtype=id_dtype(count))  # rank[k]: distinct keys <= k
    del seen
    return gather(rank, index), count


def _lex_rank(primary: np.ndarray, values: np.ndarray, top_primary: int) -> tuple[np.ndarray, int]:
    """Rank (primary, value) pairs lexicographically, 1-based, as
    :func:`_rank` ranks keys: ranks and their count.

    ``values`` is a C-contiguous int64 array of the pairs' length that the
    caller gives up: it becomes the uint64 key.  ``primary`` holds
    non-negative color ids no larger than its length, of any integer dtype,
    whose largest, ``top_primary``, the caller knows (a coloring's ``r``).
    With the values shifted to start at 0, each pair is packed into the key
    ``primary * span + value``, which orders like the pair while the key
    range ``(top_primary + 1) * span`` is at most ``2**64`` (``span``: the
    values' range).  Otherwise the values are first replaced by their dense
    rank from 0, which keeps their order and makes ``span`` at most the
    length, so the bound on ``primary`` keeps the key range in uint64.
    """
    lo = int(values.min())
    span = int(values.max()) - lo + 1
    # uint64 arithmetic wraps modulo 2**64, which leaves every key in [0, 2**64)
    # exact; a span of 2**64 (read as 0) occurs only with every primary 0
    key = values.view(np.uint64)
    key -= np.uint64(lo % _UINT64_RANGE)
    if (top_primary + 1) * span > _UINT64_RANGE:
        ranks, span = _dense_rank(key, span - 1)
        np.subtract(ranks, np.uint64(1), out=key)
        del ranks
    scale = np.uint64(span % _UINT64_RANGE)
    for s in range(0, len(key), _RANK_BLOCK):  # narrow ids widened a block at a time
        key[s : s + _RANK_BLOCK] += np.multiply(
            primary[s : s + _RANK_BLOCK], scale, dtype=np.uint64, casting="unsafe"
        )
    return _rank(key, (top_primary + 1) * span - 1)


@dataclass(frozen=True, eq=False)
class ColorMatrix:
    """A coloring of the complete digraph: ``cells[u, v]`` is the color of ``u -> v``.

    Invariants: ``cells`` is square, in :func:`id_dtype` of ``r``, and the
    set of entries is exactly ``{1..r}``.  The constructor checks the grid
    (:func:`_as_grid`) and the ids, by one presence scan, then converts them
    to that dtype; the array is frozen read-only and the constructor takes
    ownership of it when it already has that dtype.  Colorings made in this
    module, whose ids are ranks or relabels ``1..r`` by construction, come
    from :meth:`_ranked` instead, which skips the scan.
    """

    cells: np.ndarray
    r: int

    def __post_init__(self) -> None:
        if not isinstance(self.cells, np.ndarray):
            raise InputError("cells must be an ndarray")
        cells = _as_grid(self.cells)
        flat = cells.ravel()
        top = int(flat.max())  # a presence table only for ids up to the cell count
        if top != self.r or top > len(flat) or np.count_nonzero(_id_presence(flat, top)) != top:
            raise InputError(f"colors must be exactly 1..{self.r}, all used")
        # ids are checked before the cast, which would wrap larger ones
        cells = cells.astype(id_dtype(self.r), copy=False)
        object.__setattr__(self, "cells", cells)
        cells.setflags(write=False)

    @classmethod
    def _ranked(cls, cells: np.ndarray, r: int) -> "ColorMatrix":
        """A coloring of square ``cells`` in :func:`id_dtype` of ``r`` that
        hold exactly the ids ``1..r`` by construction, with ``r`` from the
        relabel or rank that made them: built without the invariant scan."""
        assert cells.dtype == id_dtype(r), (cells.dtype, r)
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
    becomes ``[[1, 2], [2, 1]]``.  Ids already so numbered pass through,
    narrowed to :func:`id_dtype` of ``r``; a contiguous grid already in
    that dtype is not copied, and the coloring takes ownership of it, as
    :class:`ColorMatrix` does.  Other ids are ranked by their first
    position (:func:`_first_occurrence_relabel`).
    """
    arr = _as_grid(raw)
    flat, r = _first_occurrence_relabel(arr.ravel())
    if np.may_share_memory(flat, arr):  # ids passed through: the grid is frozen too
        arr.setflags(write=False)
    return ColorMatrix._ranked(flat.reshape(arr.shape), r)


def normalize_by_value(raw) -> tuple[ColorMatrix, np.ndarray]:
    """Like :func:`validate`, but renumber colors by sorted original id.

    Two grids that use the same vocabulary of original ids map to the same
    new ids, regardless of where those ids first occur.  Paired runs rely on
    this to keep color ids aligned across two inputs.  Returns the coloring,
    the ids' ranks (:func:`_rank`), and ``ids``, the sorted distinct ids
    (the vocabulary) scattered from the cells: ``ids[k]`` becomes ``k + 1``.
    """
    arr = _as_grid(raw)
    flat = arr.ravel()
    ranks, r = _rank(flat, int(flat.max()))
    # each id scattered to its rank, a block of ranks cast to intp at a time
    ids = np.empty(r + 1, dtype=np.int64)
    for s in range(0, len(flat), _RANK_BLOCK):
        ids[ranks[s : s + _RANK_BLOCK].astype(np.intp)] = flat[s : s + _RANK_BLOCK]
    return ColorMatrix._ranked(ranks.reshape(arr.shape), r), ids[1:]


def rainbow_refine(x: ColorMatrix) -> ColorMatrix:
    """Split classes so color determines loop-ness and the reverse arc's color.

    Each cell gets the key ``(own color, reverse color)`` where the reverse
    color of a loop is the sentinel ``r + 1``; keys are ranked
    lexicographically.  The output satisfies :func:`is_rainbow` and is the
    mandatory preprocessing step before any refinement run.  The reverse
    colors are an int64 copy, which becomes the rank key.
    """
    reverse = x.cells.T.astype(np.int64, order="C")
    np.fill_diagonal(reverse, x.r + 1)
    ranks, r_new = _lex_rank(x.cells.ravel(), reverse.ravel(), x.r)
    return ColorMatrix._ranked(ranks.reshape(x.n, x.n), r_new)


def _constant_per_class(old: np.ndarray, value: np.ndarray, r: int) -> bool:
    """True when all cells of each class of ``old`` (ids ``1..r``) share a value.

    Each cell's value is scattered to its class's entry; whichever write
    lands, every cell then equals its class's entry exactly when each class
    is constant.  Compared ``_RANK_BLOCK`` cells at a time, stopping at the
    first block with a difference.
    """
    rep = np.empty(r + 1, dtype=value.dtype)
    for s in range(0, len(old), _RANK_BLOCK):
        # a block of ids cast to intp scatters faster than narrow ids do
        rep[old[s : s + _RANK_BLOCK].astype(np.intp)] = value[s : s + _RANK_BLOCK]
    return all(
        np.array_equal(gather(rep, old[s : s + _RANK_BLOCK]), value[s : s + _RANK_BLOCK])
        for s in range(0, len(old), _RANK_BLOCK)
    )


def refine_by(x: ColorMatrix, values: np.ndarray) -> RefinementOutcome:
    """Split the classes of ``x`` by a matrix of per-cell integer values.

    New colors are the lexicographic ranks of ``(old color, value)`` pairs,
    so the result always refines ``x`` and never merges classes.  Cells of
    the same old color with equal values stay together.  ``values`` must be
    a writeable C-contiguous int64 ndarray of the same shape as ``x.cells``,
    which the caller gives up: the rank key is built in it.  The result's
    cells are a fresh array of narrow ids.
    """
    if not (
        isinstance(values, np.ndarray)
        and values.dtype == np.int64
        and values.flags.c_contiguous
        and values.flags.writeable
    ):
        raise InputError("values must be a writeable C-contiguous int64 ndarray")
    if values.shape != x.cells.shape:
        raise InputError(f"value matrix shape {values.shape} != {x.cells.shape}")
    old = x.cells.ravel()
    value = values.ravel()
    if _constant_per_class(old, value, x.r):
        # the rank of (old, constant) over the ids 1..r is old itself
        return RefinementOutcome(False, x)
    ranks, r_new = _lex_rank(old, value, x.r)
    return RefinementOutcome(r_new > x.r, ColorMatrix._ranked(ranks.reshape(x.n, x.n), r_new))


def is_same_partition(x: ColorMatrix, y: ColorMatrix) -> bool:
    """True when the two colorings cut the cells into identical classes.

    Color ids are ignored.  Equal class counts and ``y``'s ids splitting no
    class of ``x``, so that ``x`` refines ``y``, make the classes correspond
    one to one.
    """
    if x.n != y.n:
        raise InputError("colorings have different sizes")
    return x.r == y.r and not refine_by(x, y.cells.astype(np.int64, order="C")).refined


def is_discrete(x: ColorMatrix) -> bool:
    """Every cell has its own color, so no refinement step can split a class."""
    return x.r == x.n * x.n


def is_rainbow(x: ColorMatrix) -> bool:
    """Check the two structural preconditions of a refinement run.

    Diagonal (loop) colors must not appear off the diagonal, and the color of
    ``(u, v)`` must determine the color of ``(v, u)``: exactly when
    :func:`rainbow_refine` splits no class.
    """
    return rainbow_refine(x).r == x.r


def color_counts(x: ColorMatrix) -> np.ndarray:
    """Cell count per color id, indexed by the id (entry 0 is 0).

    ``bincount`` copies its input to intp, eight bytes a cell, so it counts
    ``max(_RANK_BLOCK, r + 1)`` cells at a time: each block's copy and
    count table then take O(block) memory, and the tables O(cells) time.
    """
    flat = x.cells.ravel()
    block = max(_RANK_BLOCK, x.r + 1)
    counts = np.zeros(x.r + 1, dtype=np.intp)
    for s in range(0, len(flat), block):
        counts += np.bincount(flat[s : s + block], minlength=x.r + 1)
    return counts


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
