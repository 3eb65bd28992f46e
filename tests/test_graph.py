"""Unit tests for the color-matrix model and refinement primitives."""

from __future__ import annotations

import gc
import tracemalloc
from math import isqrt

import numpy as np
import pytest

from wlclosure import graph
from wlclosure.coherence import make_fixture
from wlclosure.graph import (
    ColorMatrix,
    InputError,
    is_color_isomorphism,
    is_rainbow,
    is_same_partition,
    normalize_by_value,
    permute_vertices,
    rainbow_refine,
    refine_by,
    validate,
)

from wlclosure.classical import classical_closure, classical_step
from wlclosure.probabilistic import RunParams, StoppingPolicy, paired_closure, probabilistic_closure

from oracles import (
    assert_color_matrix_invariant,
    brute_is_rainbow,
    brute_is_refinement,
    brute_rainbow,
    partition_of,
    python_color_counts,
    python_first_occurrence_relabel,
    python_first_positions,
    python_normalize_by_value,
    python_refine_by,
    random_grid,
    sorted_tuple_ranks,
)


def test_validate_renumbers_first_occurrence():
    x = validate([[5, 9], [9, 5]])
    assert x.cells.tolist() == [[1, 2], [2, 1]]
    assert x.r == 2


def test_validate_keeps_canonical_input():
    x = validate([[1, 2], [2, 1]])
    assert x.cells.tolist() == [[1, 2], [2, 1]]


def test_validate_single_vertex():
    x = validate([[3]])
    assert x.cells.tolist() == [[1]]
    assert x.r == 1


def test_validate_first_occurrence_is_row_major():
    x = validate([[2, 7, 7], [7, 2, 7], [7, 7, 2]])
    assert x.cells.tolist() == [[1, 2, 2], [2, 1, 2], [2, 2, 1]]


@pytest.mark.parametrize(
    "bad",
    [
        [[1, 2]],
        [[1], [2]],
        [],
        [[0, 1], [1, 1]],
        [[-3]],
        [[1.5, 1.0], [1.0, 1.0]],
    ],
)
def test_validate_rejects_malformed(bad):
    with pytest.raises(InputError):
        validate(bad)


def test_colormatrix_requires_contiguous_colors():
    with pytest.raises(InputError):
        ColorMatrix(np.array([[1, 3], [3, 1]]), 3)
    with pytest.raises(InputError):
        ColorMatrix(np.array([[1, 2], [2, 1]]), 1)
    # only colorings the package ranks skip this check, never a user array
    for cells, r in [([[0, 1], [2, 3]], 3), ([[-1, 1], [2, 3]], 3), ([[1, 5], [5, 1]], 5),
                     ([[1, 2], [2, 1]], 5), ([[1, 2**62], [2, 1]], 2**62),
                     ([[1, 2], [2, 3]], 2), ([[1, 1], [1, 1]], 0)]:
        for dtype in (np.int64, np.int32):
            with pytest.raises(InputError):
                ColorMatrix(np.array(cells).astype(dtype), r)
    # fractional cells are not truncated, nor strings parsed
    for cells in (np.array([[1.5, 2.0], [2.0, 1.0]]), np.array([["1", "2"], ["2", "1"]])):
        with pytest.raises(InputError):
            ColorMatrix(cells, 2)
    with pytest.raises(InputError, match="cells must be an ndarray"):
        ColorMatrix([[4, 2], [3, 1]], 4)
    assert ColorMatrix(np.array([[4, 2], [3, 1]]), 4).r == 4


def test_cell_limit_is_2_31():
    graph.check_size(46340)  # 2,147,395,600 cells
    limit = "a grid at n=46341 is over the size limit, n <= 46340"
    with pytest.raises(graph.ResourceGuardError, match=limit):
        graph.check_size(46341)


@pytest.mark.parametrize(
    "entry",
    [lambda g: ColorMatrix(g, 1), validate, normalize_by_value],
    ids=["ColorMatrix", "validate", "normalize_by_value"],
)
def test_grids_past_the_cell_limit_are_refused_before_a_pass(entry):
    """A zero-stride view of 46,341**2 cells costs nothing to make; each
    entry refuses it without reading a cell, so without an n**2 buffer."""
    huge = np.broadcast_to(np.int64(1), (46341, 46341))
    gc.collect()
    tracemalloc.start()
    try:
        with pytest.raises(graph.ResourceGuardError, match="n=46341"):
            entry(huge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_colormatrix_cells_are_read_only():
    x = validate([[1, 2], [2, 1]])
    with pytest.raises(ValueError):
        x.cells[0, 0] = 2


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
def test_gather_widens_each_block_exactly(dtype):
    """``gather(table, index, np.float64)`` equals ``table`` cast to float64
    and indexed, for 1-D indexes one short of, equal to and one past a
    block and for a strided 2-D column slice of a grid three row blocks
    long, the last one short; a block's last entries dropped or shifted
    would differ, as the table's entries differ from their neighbours'."""
    rng = np.random.default_rng(int(np.dtype(dtype).itemsize))
    if np.iinfo(dtype).max < 2**16:
        table = rng.permutation(np.iinfo(dtype).max + 1)[:4096].astype(dtype)
    else:  # values past 2**31, which an int32 reading would make negative
        table = rng.integers(2**31, 2**32, size=4096, dtype=np.uint64).astype(dtype)
    for size in (graph._RANK_BLOCK - 1, graph._RANK_BLOCK, graph._RANK_BLOCK + 1):
        index = rng.integers(0, len(table), size=size)
        got = graph.gather(table, index, np.float64)
        assert got.dtype == np.float64
        assert np.array_equal(got, table.astype(np.float64)[index])
    grid = rng.integers(0, len(table), size=(300, 200)).astype(np.uint16)
    columns = grid[:, 50:170]  # 136 rows a block: blocks of 136, 136 and 28
    assert not columns.flags.c_contiguous
    got = graph.gather(table, columns, np.float64)
    assert got.dtype == np.float64
    assert np.array_equal(got, table.astype(np.float64)[columns])


def test_rainbow_splits_uniform_2x2():
    out = rainbow_refine(validate([[1, 1], [1, 1]]))
    assert out.cells.tolist() == [[2, 1], [1, 2]]
    assert out.r == 2


def test_rainbow_uniform_3x3():
    out = rainbow_refine(validate([[1] * 3] * 3))
    assert out.cells.tolist() == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]


def test_rainbow_keeps_asymmetric_pair_fixed():
    x = validate([[1, 2], [3, 1]])
    assert rainbow_refine(x).cells.tolist() == x.cells.tolist()


def test_rainbow_single_vertex():
    assert rainbow_refine(validate([[1]])).cells.tolist() == [[1]]


@pytest.mark.parametrize("seed", range(12))
def test_rainbow_matches_brute_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    x = validate(random_grid(rng, n, int(rng.integers(1, 5))))
    assert rainbow_refine(x).cells.tolist() == brute_rainbow(x.cells.tolist())


@pytest.mark.parametrize("seed", range(8))
def test_rainbow_output_is_rainbow_and_idempotent(seed):
    rng = np.random.default_rng(100 + seed)
    x = validate(random_grid(rng, int(rng.integers(1, 10)), 3))
    once = rainbow_refine(x)
    assert is_rainbow(once)
    assert rainbow_refine(once).cells.tolist() == once.cells.tolist()


def test_is_rainbow_rejects_loop_color_reuse():
    assert not is_rainbow(validate([[1, 1], [1, 1]]))


def test_is_rainbow_rejects_transpose_ambiguity():
    # color 2 reverses to 3 at (0,1) but to 2 at (0,2)
    x = validate([[1, 2, 2], [3, 1, 4], [2, 4, 1]])
    assert not is_rainbow(x)


def test_refine_by_stable_on_frozen_example():
    x = ColorMatrix(np.array([[2, 1], [1, 2]]), 2)
    out = refine_by(x, np.array([[41, 31], [31, 41]]))
    assert not out.refined
    assert out.result.cells.tolist() == [[2, 1], [1, 2]]


def test_refine_by_splits_and_tracks_parents():
    x = ColorMatrix(np.array([[2, 1], [1, 2]]), 2)
    out = refine_by(x, np.array([[41, 31], [99, 41]]))
    assert out.refined
    assert out.result.cells.tolist() == [[3, 1], [2, 3]]
    assert brute_is_refinement(out.result, x)


@pytest.mark.parametrize("seed", range(10))
def test_refine_by_never_coarsens(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(1, 12))
    x = validate(random_grid(rng, n, int(rng.integers(1, 6))))
    values = rng.integers(0, 4, size=(n, n), dtype=np.int64)
    out = refine_by(x, values)
    assert out.result.r >= x.r
    assert brute_is_refinement(out.result, x)
    assert out.refined == (out.result.r > x.r)


def test_refine_by_generic_values_match_ndarray_path():
    rng = np.random.default_rng(42)
    x = validate(random_grid(rng, 6, 3))
    values = rng.integers(0, 3, size=(6, 6), dtype=np.int64)
    fast = refine_by(x, values.copy())
    refined, grid = python_refine_by(x.cells.tolist(), values.tolist())
    assert fast.result.cells.tolist() == grid
    assert fast.refined == refined


def test_refine_by_rejects_shape_mismatch():
    x = validate([[1, 2], [2, 1]])
    with pytest.raises(InputError):
        refine_by(x, np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(InputError):
        refine_by(x, [[1, 2, 3], [4, 5, 6]])


def test_refine_by_takes_only_integer_ndarrays():
    x = validate([[1, 2], [2, 1]])
    with pytest.raises(InputError):
        refine_by(x, [[1, 2], [2, 1]])
    with pytest.raises(InputError):
        refine_by(x, np.ones((2, 2)))


_TOP = 2**63 - 1  # 7 * 1317624576693539401
_SPAN_AT_TOP = _TOP // 7
# 16 cells take 4 index bits, so keys of up to 60 bits pack without a shift
_PACKED_CELLS = 16


def _packed_case(bits, secondary):
    """Primary 0 and the given secondary, padded to ``_PACKED_CELLS`` cells
    with 0 and ``2**bits - 1``, so the key range is exactly ``2**bits``."""
    tail = [0, 2**bits - 1] * _PACKED_CELLS
    secondary = list(secondary) + tail[: _PACKED_CELLS - len(secondary)]
    return np.zeros(_PACKED_CELLS, dtype=np.int64), np.array(secondary, dtype=np.uint64).view(np.int64)


def _rank_case(name):
    """(primary, secondary, packed sorts) of one case."""
    rng = np.random.default_rng(77)
    if name == "random":
        # key range (5 + 1) * 9 = 54 <= 300 cells: a presence table, no sort
        return rng.integers(1, 6, 300), rng.integers(-4, 5, 300), 0
    if name == "table_range_at_cell_count":
        # (max primary + 1) * span == 6 * 10 == 60 cells
        primary, secondary = rng.integers(0, 6, 60), rng.integers(-3, 7, 60)
        primary[:2], secondary[:2] = 5, (-3, 6)
        return primary, secondary, 0
    if name == "table_range_above_cell_count":
        primary, secondary = rng.integers(0, 6, 59), rng.integers(-3, 7, 59)
        primary[:2], secondary[:2] = 5, (-3, 6)
        return primary, secondary, 1
    if name == "bound_at_int64_max":
        # (max primary + 1) * span == 2**63 - 1: one packed sort of 63-bit
        # keys, by their top 61 bits
        lo = -5
        secondary = np.array([lo, lo + _SPAN_AT_TOP - 1, 0, lo, 17, lo + _SPAN_AT_TOP - 1])
        return np.array([6, 1, 6, 6, 0, 1]), secondary, 1
    if name == "bound_above_int64_max":
        # a key range of 2**63 + 6 still fits uint64: no dense-rank pre-pass
        lo = -5
        secondary = np.array([lo, lo + _SPAN_AT_TOP, 0, lo, 17, lo + _SPAN_AT_TOP])
        return np.array([6, 1, 6, 6, 0, 1]), secondary, 1
    if name == "negative_and_equal":
        # key range 3 * (2**63 + 4) > 2**64: the secondary is dense-ranked first
        return np.array([2, 2, 1, 1, 2, 1, 2]), np.array([-7, -7, 3, -7, 3, -2**63, 3]), 2
    if name == "one_cell":
        return np.array([1]), np.array([-9]), 1
    if name == "discrete_primary_small_values":
        return rng.permutation(400) + 1, rng.integers(0, 1000, 400), 1
    if name == "discrete_primary_large_values":
        return rng.permutation(400) + 1, rng.integers(-2**62, 2**62, 400), 2
    if name == "packed_single_pass":
        # 60 key bits + 4 index bits: the keys themselves are sorted, so 1
        # before 0 and 2**60 - 1 before 2**60 - 2 need no argsort
        secondary = [1, 0, 2**60 - 1, 2**60 - 2, 2**59, 5, 2**59, 4]
        return (*_packed_case(60, secondary), 1)
    if name == "packed_top_bits_in_index_order":
        # 61 key bits: the lowest is dropped; keys sharing the rest come in
        # index order, so the sorted top bits are a sort of the keys
        secondary = [2**60, 2**60 + 1, 2**61 - 2, 2**61 - 1, 6, 7, 2**60 - 1, 9]
        return (*_packed_case(61, secondary), 1)
    if name == "packed_top_bits_reversed":
        # 62 key bits: the lowest two are dropped; 7 and 4 share the rest in
        # reverse index order, so the gathered keys decrease, and their
        # block is sorted by key
        secondary = [7, 4, 2**62 - 1, 2**61, 3, 2**61 + 3]
        return (*_packed_case(62, secondary), 1)
    if name == "key_range_full_uint64":
        # primary 0, secondary over all of int64: key range exactly 2**64
        primary = np.zeros(300, dtype=np.int64)
        secondary = rng.integers(-2**63, 2**63 - 1, 300, endpoint=True)
        secondary[:3] = (-2**63, 2**63 - 1, 0)
        return primary, secondary, 1
    if name == "key_range_between_2_63_and_2_64":
        # 3 * (2**64 // 3): above 2**63, at most 2**64
        span = 2**64 // 3
        primary = rng.integers(0, 3, 300)
        secondary = rng.integers(0, span, 300) - 2**62
        primary[:2], secondary[:2] = 2, (-2**62, span - 1 - 2**62)
        return primary, secondary, 1
    if name == "key_range_above_2_64":
        # 2 * (2**63 + 1) = 2**64 + 2: the secondary is dense-ranked first
        primary = rng.integers(0, 2, 300)
        secondary = rng.integers(-2**62, 2**62, 300)
        primary[0], secondary[:2] = 1, (-2**62, 2**63 - 2**62)
        return primary, secondary, 2
    raise AssertionError(name)


_RANK_CASES = [
    "random",
    "table_range_at_cell_count",
    "table_range_above_cell_count",
    "bound_at_int64_max",
    "bound_above_int64_max",
    "negative_and_equal",
    "one_cell",
    "discrete_primary_small_values",
    "discrete_primary_large_values",
    "packed_single_pass",
    "packed_top_bits_in_index_order",
    "packed_top_bits_reversed",
    "key_range_full_uint64",
    "key_range_between_2_63_and_2_64",
    "key_range_above_2_64",
]


@pytest.mark.parametrize("name", _RANK_CASES)
def test_lex_rank_matches_sorted_tuple_ranks(name, monkeypatch):
    """Presence table (no sort), direct key (one packed sort) and dense-rank
    pre-pass (two) rank alike."""
    primary, secondary, sorts = _rank_case(name)
    primary, secondary = primary.astype(np.int64), secondary.astype(np.int64)
    calls = []
    real = graph._dense_rank
    monkeypatch.setattr(
        graph, "_dense_rank", lambda key, top: calls.append(1) or real(key, top)
    )
    ranks, count = graph._lex_rank(primary, secondary.copy(), int(primary.max()))
    expected = sorted_tuple_ranks(list(zip(primary.tolist(), secondary.tolist())))
    assert ranks.dtype == np.min_scalar_type(count)
    assert ranks.tolist() == expected
    assert count == max(expected)
    assert len(calls) == sorts


@pytest.mark.parametrize("name", _RANK_CASES)
def test_lex_rank_builds_key_and_ranks_in_the_secondary(name):
    """Every path builds the key in the int64 secondary it is given up and
    ranks from it in place, and returns the ranks in a fresh array of
    narrow ids."""
    primary, secondary, _ = _rank_case(name)
    primary, secondary = primary.astype(np.int64), secondary.astype(np.int64)
    expected = sorted_tuple_ranks(list(zip(primary.tolist(), secondary.tolist())))
    ranks, count = graph._lex_rank(primary, secondary, int(primary.max()))
    assert ranks.dtype == np.min_scalar_type(count)
    assert not np.shares_memory(ranks, secondary)
    assert ranks.tolist() == expected
    assert count == max(expected)


def _assert_dense_ranks(key, top):
    """``_dense_rank`` of a copy of ``key`` agrees with the oracle and
    returns fresh ranks of the narrow dtype of their count."""
    buffer = key.copy()
    ranks, count = graph._dense_rank(buffer, top)
    expected = sorted_tuple_ranks([(k,) for k in key.tolist()])
    assert ranks.dtype == np.min_scalar_type(count) and not np.shares_memory(ranks, buffer)
    assert ranks.tolist() == expected and count == max(expected)


@pytest.mark.parametrize(
    "cells, bits, shift",
    [(16, 60, 0), (16, 61, 1), (16, 62, 2), (17, 59, 0), (17, 60, 1), (1, 64, 0), (2, 64, 1)],
)
def test_dense_rank_drops_the_fewest_key_bits(cells, bits, shift):
    """Key bits plus index bits up to 64 pack whole; beyond that, the
    ``shift`` excess low key bits are dropped.  The keys are ranked as
    drawn, and with the last cell moved to the first one's high part below
    its low bits, a tie that only the dropped bits split."""
    rng = np.random.default_rng(cells * 100 + bits)
    key = rng.integers(0, 2**bits, cells, dtype=np.uint64, endpoint=False)
    key[0] = 2**bits - 1
    _assert_dense_ranks(key, 2**bits - 1)
    key[-1] = key[0] >> np.uint64(shift) << np.uint64(shift)
    _assert_dense_ranks(key, 2**bits - 1)


def _straddle_case(monkeypatch, block, first, pair):
    """Rank 16 keys of 62 bits (shift 2) that hold ``pair``, two keys
    sharing their top bits, at sorted positions ``first`` and ``first +
    1``, with ``block`` cells a block."""
    key = [2**62 - 16 + i for i in range(16)]  # ascending with the index: in order
    key[first : first + 2] = pair
    key[:first] = range(first)
    monkeypatch.setattr(graph, "_RANK_BLOCK", block)
    _assert_dense_ranks(np.array(key, dtype=np.uint64), 2**62 - 1)


@pytest.mark.parametrize(
    "block, first, straddles",
    [
        (16, 0, 0),  # the reversed pair inside one block
        (2, 0, 0),
        (1, 0, 1),  # each cell its own block: the pair straddles a boundary
        (2, 1, 1),  # the pair at sorted positions 1 and 2, across blocks of 2
        (3, 1, 0),
    ],
)
def test_dense_rank_repairs_blocks_or_falls_back(monkeypatch, block, first, straddles):
    """Keys 7 and 4 share their top bits in reverse index order, inside one
    block or across a block boundary (``straddles``): the second round puts
    them in key order either way."""
    assert (first // block != (first + 1) // block) == straddles
    _straddle_case(monkeypatch, block, first, [7, 4])


@pytest.mark.parametrize("block, first", [(16, 0), (1, 0), (2, 1), (3, 1)])
def test_dense_rank_straddling_high_parts_in_index_order(monkeypatch, block, first):
    """Keys 4 and 7 share their top bits in index order, already in key
    order wherever blocks end."""
    _straddle_case(monkeypatch, block, first, [4, 7])


@pytest.mark.parametrize("block", [3, 7, 16384])
@pytest.mark.parametrize("bits", [40, 62, 64])
def test_dense_rank_blocks_that_tie_and_straddle(monkeypatch, block, bits):
    """``_dense_rank`` sorts its words in the key's own buffer and returns
    the ranks in a fresh narrow array: 500 cells drawn from 40 values in
    runs of equal top bits, so blocks tie and runs straddle their ends."""
    monkeypatch.setattr(graph, "_RANK_BLOCK", block)
    rng = np.random.default_rng(bits * 10 + block)
    tops = rng.integers(0, 2 ** (bits - 10), 8, dtype=np.uint64) << np.uint64(10)
    values = tops[rng.integers(0, 8, 40)] | rng.integers(0, 2**10, 40, dtype=np.uint64)
    _assert_dense_ranks(values[rng.integers(0, 40, 500)], 2**bits - 1)


@pytest.mark.parametrize("block", [1, 2, 3, 7, 16384])
def test_dense_rank_matches_the_oracle_on_clustered_keys(monkeypatch, block):
    """Seeded fuzz: keys of 1 to 64 bits drawn from a few high parts, each
    with several low parts, and placed in descending order, so high parts
    tie with different low bits in reverse index order."""
    monkeypatch.setattr(graph, "_RANK_BLOCK", block)
    rng = np.random.default_rng(block)
    for bits in range(1, 65):
        cells = int(rng.integers(1, 200))
        low_bits = int(rng.integers(0, bits + 1))
        highs = rng.integers(0, 2 ** (bits - low_bits), 4, dtype=np.uint64, endpoint=False)
        lows = rng.integers(0, 2**low_bits, 6, dtype=np.uint64, endpoint=False)
        values = highs[:, None] << np.uint64(low_bits) | lows
        key = np.sort(values.ravel()[rng.integers(0, values.size, cells)])[::-1]
        if rng.random() < 0.5:
            key = rng.permutation(key)
        _assert_dense_ranks(key, 2**bits - 1)


def test_dense_rank_third_round():
    """2**22 + 1 cells of 63-bit keys: 23 index bits leave 41 for the first
    words, and the second round, of keys ``rank << 22 | low`` with more
    than 2**19 ranks, still drops low bits, so keys that tie in all but
    their last three bits take a third round."""
    rng = np.random.default_rng(7)
    cells = 2**22 + 1
    high = rng.integers(0, 2**41, cells // 2, dtype=np.uint64)
    low = rng.integers(0, 2**22, cells // 2, dtype=np.uint64)
    twin = low ^ rng.integers(0, 8, cells // 2, dtype=np.uint64)  # equal but the last 3 bits
    top = np.array([2**63 - 1], dtype=np.uint64)
    key = np.concatenate([high << np.uint64(22) | low, high << np.uint64(22) | twin, top])
    key = key[rng.permutation(cells)]
    _, inverse = np.unique(key, return_inverse=True)
    ranks, count = graph._dense_rank(key.copy(), 2**63 - 1)
    assert count == int(inverse.max()) + 1
    assert np.array_equal(ranks, inverse + 1)
    assert ranks.dtype == np.uint32


def test_discrete_step_rebuilds_no_keys():
    """A Monte Carlo step that makes a random input discrete drops low key
    bits; its ids are the oracle's ranks of the ``(old color, product)``
    pairs."""
    from wlclosure.probabilistic import draw_substitution, numeric_product

    x = rainbow_refine(make_fixture("random", 256, 3, 41))
    values = numeric_product(x, draw_substitution(x.r, 10**6, np.random.default_rng(42)))
    expected = sorted_tuple_ranks(list(zip(x.cells.ravel().tolist(), values.ravel().tolist())))
    out = refine_by(x, values)
    assert out.result.r == 256 * 256
    assert out.result.cells.ravel().tolist() == expected


def test_refine_by_peak_on_a_discrete_step():
    """``refine_by`` of a step's product at n=1024 holds, beside the
    product it sorts in, the words' low bits (one byte each) and then the
    uint32 ids of the discrete result, and a block of temporaries: at most
    5 bytes a cell (4.3 MiB measured; 12.2 MiB with a separate words
    array)."""
    from wlclosure.probabilistic import draw_substitution, numeric_product

    n = 1024
    x = rainbow_refine(make_fixture("random", n, 3, 51))
    values = numeric_product(x, draw_substitution(x.r, 10**6, np.random.default_rng(52)))
    gc.collect()
    tracemalloc.start()
    try:
        out = refine_by(x, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.result.r == n * n and out.result.cells.dtype == np.uint32
    assert peak <= 5 * n * n, f"{peak / 2**20:.2f} MiB"


def test_rainbow_refine_peak_on_a_random_input():
    """Rainbow preprocessing of random(1024, 3) holds the int64 reverse
    colors, which become its rank key, and the uint8 ids of its result: at
    most 9.5 MiB (9.0 measured; 11.0 with a narrow copy of the reverse
    colors, its row-major copy and a separate uint64 key)."""
    x = make_fixture("random", 1024, 3, 51)
    gc.collect()
    tracemalloc.start()
    try:
        out = rainbow_refine(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.cells.dtype == np.uint8
    assert peak <= 9.5 * 2**20, f"{peak / 2**20:.2f} MiB"


def test_is_refinement_basic_direction():
    """Refinement has a direction; two colorings cut the same classes only
    when each refines the other."""
    coarse = validate([[1, 1], [1, 1]])
    fine = rainbow_refine(coarse)
    assert brute_is_refinement(fine, coarse)
    assert not brute_is_refinement(coarse, fine)
    assert brute_is_refinement(coarse, coarse)
    assert not is_same_partition(fine, coarse) and not is_same_partition(coarse, fine)
    assert is_same_partition(coarse, coarse)


@pytest.mark.parametrize("seed", range(6))
def test_is_refinement_transitive_along_chains(seed):
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(2, 8))
    x = validate(random_grid(rng, n, 2))
    y = refine_by(x, rng.integers(0, 2, size=(n, n), dtype=np.int64)).result
    z = refine_by(y, rng.integers(0, 2, size=(n, n), dtype=np.int64)).result
    assert brute_is_refinement(y, x) and brute_is_refinement(z, y) and brute_is_refinement(z, x)
    # a refinement cuts the same classes exactly when it has as many
    for fine, coarse in ((y, x), (z, y), (z, x)):
        assert is_same_partition(fine, coarse) == is_same_partition(coarse, fine) == (fine.r == coarse.r)
    if brute_is_refinement(x, y):
        assert is_same_partition(x, y)


def test_is_refinement_size_mismatch():
    with pytest.raises(InputError):
        is_same_partition(validate([[1]]), validate([[1, 2], [2, 1]]))


def _rainbow_case(kind, seed):
    rng = np.random.default_rng(400 + seed)
    n = int(rng.integers(3, 12))
    x = rainbow_refine(validate(random_grid(rng, n, int(rng.integers(1, 5)))))
    cells = x.cells.copy()
    u, v = rng.choice(np.arange(1, n), size=2, replace=False)
    if kind == "loop_color_off_diagonal":
        cells[u, v] = cells[u, u]
    elif kind == "reverse_not_a_function":
        # color c(0, 1) reverses to c(1, 0) there, and to a fresh color at (u, v)
        cells[u, v], cells[v, u] = cells[0, 1], x.r + 1
    return validate(cells)


@pytest.mark.parametrize("kind", ["rainbow", "loop_color_off_diagonal", "reverse_not_a_function"])
@pytest.mark.parametrize("seed", range(8))
def test_is_rainbow_matches_set_oracle(kind, seed):
    x = _rainbow_case(kind, seed)
    expected = brute_is_rainbow(x.cells.tolist())
    assert is_rainbow(x) == expected
    assert expected == (kind == "rainbow")


@pytest.mark.parametrize("seed", range(12))
def test_is_refinement_matches_set_oracle(seed):
    """``is_same_partition`` is equal class counts and a refinement, one way
    round, as the set oracle finds it."""
    rng = np.random.default_rng(500 + seed)
    n = int(rng.integers(1, 10))
    x = validate(random_grid(rng, n, int(rng.integers(1, 4))))
    y = validate(random_grid(rng, n, int(rng.integers(1, 4))))
    finer = refine_by(x, rng.integers(0, 3, size=(n, n), dtype=np.int64)).result
    for fine, coarse in ((finer, x), (x, finer), (x, y), (y, x), (x, x)):
        expected = fine.r == coarse.r and brute_is_refinement(fine, coarse)
        assert is_same_partition(fine, coarse) == expected
    assert brute_is_refinement(finer, x)


def test_refine_by_quiet_step_returns_its_input(monkeypatch):
    """Values constant on every class split nothing: the input comes back
    as it is, without a rank."""
    rng = np.random.default_rng(8)
    x = rainbow_refine(validate(random_grid(rng, 9, 3)))
    per_color = rng.integers(-10**12, 10**12, x.r + 1)
    monkeypatch.setattr(graph, "_lex_rank", lambda *a: pytest.fail("ranked a quiet step"))
    out = refine_by(x, per_color[x.cells])
    assert out.result is x
    assert not out.refined


@pytest.mark.parametrize("seed", range(6))
def test_refine_by_matches_the_oracle_on_wide_values(seed):
    """Values over most of int64, whose key range may pass ``2**64``, or
    of a few distinct values."""
    rng = np.random.default_rng(600 + seed)
    n = int(rng.integers(2, 12))
    x = validate(random_grid(rng, n, int(rng.integers(1, 4))))
    values = rng.integers(-(2**62), 2**62, size=(n, n)) // int(rng.choice([1, 2**60]))
    out = refine_by(x, values.copy())
    refined, grid = python_refine_by(x.cells.tolist(), values.tolist())
    assert (out.refined, out.result.cells.tolist()) == (refined, grid)


def test_refine_by_builds_its_key_in_values_it_may_overwrite():
    """The key is built in the values, and the ranks come back in a fresh
    array of narrow ids; values that cannot become the key are refused."""
    rng = np.random.default_rng(61)
    x = rainbow_refine(validate(random_grid(rng, 10, 3)))
    values = rng.integers(0, 5, size=(10, 10))
    refined, grid = python_refine_by(x.cells.tolist(), values.tolist())
    buffer = values.copy()
    out = refine_by(x, buffer)
    assert out.refined and refined
    assert not np.array_equal(buffer, values)  # the key was built there
    assert not np.shares_memory(out.result.cells, buffer)
    assert out.result.cells.dtype == np.min_scalar_type(out.result.r)
    assert out.result.cells.tolist() == grid
    read_only = values.copy()
    read_only.setflags(write=False)
    for bad in (values.astype(np.int32), np.asfortranarray(values), read_only):
        with pytest.raises(InputError):
            refine_by(x, bad)


def test_refine_by_one_differing_cell_is_not_quiet():
    rng = np.random.default_rng(9)
    x = rainbow_refine(validate(random_grid(rng, 9, 3)))
    values = np.zeros_like(x.cells)
    for cell in (0, 40, 80):  # the first, a middle and the last cell
        values.flat[cell] = 1
        out = refine_by(x, values.astype(np.int64))
        refined, grid = python_refine_by(x.cells.tolist(), values.tolist())
        assert out.result.cells.tolist() == grid
        assert out.refined == refined
        values.flat[cell] = 0


def test_refine_by_working_set_on_a_path_run():
    """Each refine_by of a Monte Carlo run on a permuted path(512) peaks at
    most at 29 bytes a cell, 7.25 MiB: the size of three int64 arrays of
    n**2 cells and a bool one, and its result's ids (uint32 past 65,535
    classes)."""
    from wlclosure.probabilistic import draw_substitution, numeric_product

    n = 512
    perm = np.random.default_rng(5).permutation(n)
    x = rainbow_refine(permute_vertices(make_fixture("path", n), perm))
    rng = np.random.default_rng(3001)
    peaks = []
    for _ in range(11):
        values = numeric_product(x, draw_substitution(x.r, 10**6, rng))
        gc.collect()
        tracemalloc.start()
        try:
            out = refine_by(x, values)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        x = out.result
    assert x.r == n * n // 2
    assert max(peaks) <= (3 * 8 + 1 + 4) * n * n, [f"{p / 2**20:.2f}" for p in peaks]


def _relabel_case(name):
    rng = np.random.default_rng(61)
    if name == "dense_small_ids":
        return rng.integers(1, 6, 500)
    if name == "dense_small_ids_int32":
        return rng.integers(2, 9, 500).astype(np.int32)
    if name == "all_distinct":
        return rng.permutation(400) + 1
    if name == "half_merged":
        return rng.permutation(400) // 2 + 1
    if name == "sparse_near_2_62":
        return rng.integers(2**62 - 50, 2**62 + 50, 300)
    if name == "sparse_int64_extremes":  # ids 1 and 2**63 - 1 in one grid
        return rng.choice(np.array([1, 2**63 - 1]), 300)
    if name == "sparse_past_blocks":  # sparse ids over several rank blocks, two first seen late
        flat = rng.choice(rng.integers(10**6, 2**62, 1000), 3 * graph._RANK_BLOCK + 5)
        flat[2 * graph._RANK_BLOCK + 7] = 2**62 + 9
        flat[2 * graph._RANK_BLOCK + 9] = 5 * 10**5
        return flat
    if name == "sparse_fits_int32":  # ids times 1000
        return ((rng.permutation(400) // 2 + 1) * 1000).astype(np.int32)
    if name == "few_ids_past_a_block":  # several rank blocks of a few ids
        return rng.integers(1, 4, 3 * graph._RANK_BLOCK + 5)
    if name == "ids_first_past_a_block":  # late first occurrences, the larger id first
        flat = rng.integers(1, 4, 3 * graph._RANK_BLOCK + 5)
        flat[2 * graph._RANK_BLOCK + 7] = 9
        flat[2 * graph._RANK_BLOCK + 9] = 5
        return flat
    if name == "in_order_past_a_block":  # ids 1..3 in order, a new id 4 past a block
        flat = rng.integers(1, 4, 3 * graph._RANK_BLOCK + 5)
        flat[:3] = 1, 2, 3
        flat[2 * graph._RANK_BLOCK + 7] = 4
        return flat
    if name == "sparse_in_order":  # in first-occurrence order once ranked by value
        return np.repeat(np.arange(1, 201) * 10**12, 2)
    raise AssertionError(name)


_RELABEL_CASES = [
    "dense_small_ids",
    "dense_small_ids_int32",
    "all_distinct",
    "half_merged",
    "sparse_near_2_62",
    "sparse_int64_extremes",
    "sparse_past_blocks",
    "sparse_fits_int32",
    "few_ids_past_a_block",
    "ids_first_past_a_block",
    "in_order_past_a_block",
    "sparse_in_order",
]


@pytest.mark.parametrize("name", _RELABEL_CASES)
def test_first_occurrence_relabel_matches_sorted_dict_oracle(name):
    flat = _relabel_case(name)
    labels, r = graph._first_occurrence_relabel(flat)
    expected, expected_r = python_first_occurrence_relabel(flat.tolist())
    assert labels.dtype == np.min_scalar_type(r)
    assert labels.tolist() == expected and r == expected_r
    # sparse ids, above the cell count, are ranked by value first
    assert (int(flat.max()) > len(flat)) == name.startswith("sparse")
    if name == "all_distinct":
        assert labels.tolist() == list(range(1, len(flat) + 1))


@pytest.mark.parametrize("name", _RELABEL_CASES)
def test_normalize_by_value_matches_sorted_ids_oracle(name):
    """The largest square grid of each relabel case's first cells, ranked
    by value through a presence table or, for sparse ids, a sort."""
    flat = _relabel_case(name)
    k = isqrt(len(flat))
    x, ids = normalize_by_value(flat[: k * k].reshape(k, k))
    expected, expected_ids = python_normalize_by_value(flat[: k * k].tolist())
    assert x.cells.dtype == np.min_scalar_type(x.r)
    assert x.cells.ravel().tolist() == expected and x.r == len(expected_ids)
    assert ids.tolist() == expected_ids


def test_validate_passes_canonical_ids_through(monkeypatch):
    """Ids already ``1..r`` in first-occurrence order, in one block or over
    several, are only narrowed: no first positions and no rank.  A grid
    already in the id dtype is not copied."""

    def refuse(*args):
        raise AssertionError("canonical ids were relabeled")

    n = 200  # 40,000 cells, past two rank blocks
    u, v = np.indices((n, n))
    near_discrete = u * n + v + 1
    near_discrete[-1, -1] = 1
    grids = (
        np.array([[1, 2, 1], [3, 1, 2], [2, 3, 1]], dtype=np.int32),
        validate(np.minimum(u * n + v, v * n + u) + 1).cells.astype(np.int64),
        near_discrete,
    )
    for name in ("first_positions", "_rank", "_dense_rank"):
        monkeypatch.setattr(graph, name, refuse)
    for grid in grids:
        x = validate(grid)
        assert x.cells.dtype == np.min_scalar_type(x.r) and x.r == grid.max()
        assert x.cells.tolist() == grid.tolist()
        own = x.cells.copy()
        assert np.shares_memory(validate(own).cells, own) and not own.flags.writeable


def test_validate_of_a_near_discrete_grid_with_permuted_ids_traces_at_most_17_bytes_a_cell():
    """An int32 grid of ``n**2 - 1`` ids permuted out of first-occurrence
    order, the largest of them ``n**2``: the relabel holds a first
    position and a rank a color, then the new ids, 12.2 bytes a cell at
    n = 1024 beside the grid.  With an ``argsort`` over the present ids,
    its order and an int64 label table it traced 36."""
    n = 1024
    canonical = np.arange(n * n).reshape(n, n)
    canonical[-1, -1] = 0
    ids = np.random.default_rng(17).permutation(n * n) + 1
    grid = ids[canonical].astype(np.int32)
    assert grid.max() == n * n
    validate(grid)  # the first call traces one-time allocations
    gc.collect()
    tracemalloc.start()
    try:
        x = validate(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.r == n * n - 1 and np.array_equal(x.cells, canonical + 1)
    assert peak <= 17 * n * n, f"{peak / (n * n):.2f} bytes a cell"


def _first_positions_case(name):
    rng = np.random.default_rng(62)
    if name == "only_cell_of_an_id_is_the_last":
        flat = rng.integers(1, 3, 200)
        flat[-1] = 3
        return flat, 3
    if name == "absent_ids":  # ids 2, 5 and 9 of 0..12
        return rng.choice([2, 5, 9], 200), 12
    if name == "all_distinct":
        return rng.permutation(200) + 1, 200
    if name == "few_ids_then_many":  # every id of 1..3 occurs early
        return np.concatenate((rng.integers(1, 4, 30), rng.permutation(150) + 4)), 153
    raise AssertionError(name)


@pytest.mark.parametrize("block", [1, 7, 64, 2**14])
@pytest.mark.parametrize(
    "name", ["only_cell_of_an_id_is_the_last", "absent_ids", "all_distinct", "few_ids_then_many"]
)
def test_first_positions_matches_a_full_scan(monkeypatch, name, block):
    """Stopping once every present id is found gives the positions of a scan
    of every cell, over blocks of one cell, a few cells and all cells."""
    flat, top = _first_positions_case(name)
    monkeypatch.setattr(graph, "_RANK_BLOCK", block)
    present = len(np.unique(flat))
    for dtype in (np.uint8, np.int64):
        got = graph.first_positions(flat.astype(dtype), top, present)
        assert got.tolist() == python_first_positions(flat.tolist(), top)


def test_first_positions_stops_once_every_present_id_is_found():
    """Three ids all in the first block: the ids of later blocks, out of the
    table's range, are never read."""
    head = np.concatenate(([3, 1, 1, 2], np.ones(graph._RANK_BLOCK - 4, dtype=np.int64)))
    flat = np.concatenate((head, np.full(3 * graph._RANK_BLOCK, 99)))
    assert graph.first_positions(flat, 3, 3).tolist() == [len(flat), 1, 3, 0]
    with pytest.raises(IndexError):
        graph.first_positions(flat, 3, 4)


@pytest.mark.parametrize("seed", range(8))
def test_is_same_partition_matches_partition_oracle(seed):
    rng = np.random.default_rng(800 + seed)
    n = int(rng.integers(1, 12))
    x = validate(random_grid(rng, n, int(rng.integers(1, 5))))
    renamed = ColorMatrix(rng.permutation(x.r)[x.cells - 1] + 1, x.r)
    split = refine_by(x, rng.integers(0, 2, size=(n, n), dtype=np.int64)).result
    discrete = validate(rng.permutation(n * n).reshape(n, n) + 1)
    for y in (x, renamed, split, discrete):
        expected = partition_of(x.cells.tolist()) == partition_of(y.cells.tolist())
        assert is_same_partition(x, y) == is_same_partition(y, x) == expected
    assert is_same_partition(x, renamed)


def test_is_same_partition_ignores_color_names():
    x = validate([[1, 2], [2, 1]])
    y = ColorMatrix(np.array([[2, 1], [1, 2]]), 2)
    assert is_same_partition(x, y)
    assert not is_same_partition(x, validate([[1, 1], [1, 2]]))


def test_partition_view_and_counts():
    x = validate([[1, 2, 2], [2, 1, 2], [2, 2, 1]])
    sizes = sorted(python_color_counts(x.cells))
    assert len(sizes) == x.r == 2
    assert sizes == [3, 6]
    assert sum(sizes) == x.n * x.n
    assert python_color_counts(x.cells) == (3, 6)
    assert graph.color_counts(x).tolist() == [0, 3, 6]
    assert partition_of(x.cells) == ((0, 4, 8), (1, 2, 3, 5, 6, 7))


def _coloring_with(rng, n, r):
    """A coloring of ``n x n`` cells using every id ``1..r``, in ``id_dtype(r)``."""
    flat = np.concatenate((np.arange(1, r + 1), rng.integers(1, r + 1, n * n - r)))
    return ColorMatrix(rng.permutation(flat).reshape(n, n), r)


@pytest.mark.parametrize(
    "n, r, dtype",
    [
        (200, 3, np.uint8),  # 3 blocks of _RANK_BLOCK cells
        (200, 255, np.uint8),
        (200, 300, np.uint16),
        (200, 30_000, np.uint16),  # r above the block size: blocks of r + 1 cells
        (300, 70_000, np.uint32),
        (256, 256 * 256, np.uint32),  # discrete: one block
    ],
)
def test_color_counts_matches_bincount_blockwise(n, r, dtype):
    x = _coloring_with(np.random.default_rng(r), n, r)
    assert x.cells.dtype == dtype
    counts = graph.color_counts(x)
    assert counts.dtype == np.intp
    assert np.array_equal(counts, np.bincount(x.cells.ravel().astype(np.int64), minlength=r + 1))


def test_color_counts_copies_no_grid_to_intp():
    """A uint8 coloring at n = 512 is counted in blocks: the traced peak
    stays below one byte a cell, where an intp copy of the grid takes eight."""
    x = _coloring_with(np.random.default_rng(5), 512, 3)
    gc.collect()
    tracemalloc.start()
    try:
        graph.color_counts(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 512


def test_normalize_by_value_sorts_by_original_id():
    a, ids = normalize_by_value([[9, 5], [5, 9]])
    assert a.cells.tolist() == [[2, 1], [1, 2]] and ids.tolist() == [5, 9]
    assert normalize_by_value(np.array([[9, 5], [5, 9]], dtype=np.int32))[0].cells.tolist() == [
        [2, 1],
        [1, 2],
    ]
    sparse, ids = normalize_by_value([[2**62 + 9, 5], [5, 2**62 + 9]])
    assert sparse.cells.tolist() == [[2, 1], [1, 2]] and sparse.r == 2
    assert ids.tolist() == [5, 2**62 + 9]
    b = validate([[9, 5], [5, 9]])
    assert b.cells.tolist() == [[1, 2], [2, 1]]
    assert is_same_partition(a, b)


def test_permute_vertices_definition():
    rng = np.random.default_rng(5)
    x = validate(random_grid(rng, 7, 3))
    perm = rng.permutation(7)
    y = permute_vertices(x, perm)
    for u in range(7):
        for v in range(7):
            assert y.cells[perm[u], perm[v]] == x.cells[u, v]
    assert partition_of(y.cells) != ()
    assert python_color_counts(y.cells) == python_color_counts(x.cells)


def test_is_color_isomorphism_accepts_defining_permutation():
    rng = np.random.default_rng(6)
    x = validate(random_grid(rng, 6, 4))
    perm = rng.permutation(6)
    y = permute_vertices(x, perm)
    assert is_color_isomorphism(x, y, perm)


def test_is_color_isomorphism_rejects_wrong_map():
    x = validate([[1, 2], [3, 1]])
    y = permute_vertices(x, [1, 0])
    assert is_color_isomorphism(x, y, [1, 0])
    assert not is_color_isomorphism(x, y, [0, 1])


def test_is_color_isomorphism_rejects_non_permutation():
    x = validate([[1, 2], [2, 1]])
    with pytest.raises(InputError):
        is_color_isomorphism(x, x, [0, 0])
    with pytest.raises(InputError, match="different sizes"):
        is_color_isomorphism(x, make_fixture("path", 3), [0, 1])


def _acceptance_inputs():
    """Raw grids of the acceptance suite: random graphs as in its first
    criterion, the coherent fixtures of its second, and the n = 1024
    random input of its memory budget."""
    rng = np.random.default_rng(101)
    for _ in range(40):
        yield random_grid(rng, int(rng.integers(2, 65)), int(rng.integers(1, 9)))
    fixtures = (
        [("trivial", n) for n in range(2, 11)]
        + [("cyclic", n) for n in range(3, 13)]
        + [("cycle5",), ("petersen",), ("path", 33)]
    )
    for fixture_args in fixtures:
        yield np.array(make_fixture(*fixture_args).cells)
    yield make_fixture("random", 1024, 4, 901).cells * 7 + 3  # not 1..r


def test_ranked_colorings_keep_the_invariant_on_acceptance_inputs(monkeypatch):
    """The invariant scan that ranked ids skip is run here in full: on each
    coloring ``ColorMatrix._ranked`` builds, and on the results of every
    function that builds through it."""
    built = []
    ranked = ColorMatrix._ranked.__func__

    def checked(cls, cells, r):
        x = ranked(cls, cells, r)
        assert_color_matrix_invariant(x)
        built.append(x.n)
        return x

    monkeypatch.setattr(ColorMatrix, "_ranked", classmethod(checked))
    params = RunParams(10**6, StoppingPolicy.practical(3), 5)
    for i, raw in enumerate(_acceptance_inputs()):
        n = raw.shape[0]
        perm = np.random.default_rng(i).permutation(n)
        x = validate(raw)
        made = [x, normalize_by_value(raw)[0], rainbow_refine(x), permute_vertices(x, perm)]
        values = np.random.default_rng(i).integers(0, 3, size=(n, n), dtype=np.int64)
        made.append(refine_by(x, values).result)
        made.append(probabilistic_closure(x, params).closure)
        if n <= 64:
            made.append(classical_step(rainbow_refine(x)).result)
            made.append(classical_closure(x).closure)
            run = paired_closure(x, permute_vertices(x, perm), params)
            made += [run.first.closure, run.second.closure]
        for y in made:
            assert_color_matrix_invariant(y)
    assert len(built) > 400
