"""Unit tests for the color-matrix model and refinement primitives."""

from __future__ import annotations

import numpy as np
import pytest

from wlclosure import graph
from wlclosure.graph import (
    ColorMatrix,
    InputError,
    color_counts,
    is_color_isomorphism,
    is_rainbow,
    is_refinement,
    is_same_partition,
    normalize_by_value,
    permute_vertices,
    rainbow_refine,
    refine_by,
    validate,
)

from oracles import (
    brute_rainbow,
    partition_of,
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


def test_colormatrix_cells_are_read_only():
    x = validate([[1, 2], [2, 1]])
    with pytest.raises(ValueError):
        x.cells[0, 0] = 2


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
    assert is_refinement(out.result, x)


@pytest.mark.parametrize("seed", range(10))
def test_refine_by_never_coarsens(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(1, 12))
    x = validate(random_grid(rng, n, int(rng.integers(1, 6))))
    values = rng.integers(0, 4, size=(n, n), dtype=np.int64)
    out = refine_by(x, values)
    assert out.result.r >= x.r
    assert is_refinement(out.result, x)
    assert out.refined == (out.result.r > x.r)


def test_refine_by_generic_values_match_ndarray_path():
    rng = np.random.default_rng(42)
    x = validate(random_grid(rng, 6, 3))
    values = rng.integers(0, 3, size=(6, 6), dtype=np.int64)
    fast = refine_by(x, values)
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


def _rank_case(name):
    rng = np.random.default_rng(77)
    if name == "random":
        return rng.integers(1, 6, 300), rng.integers(-4, 5, 300), 1
    if name == "bound_at_int64_max":
        # (max primary + 1) * span == 2**63 - 1: the packed key just fits
        lo = -5
        secondary = np.array([lo, lo + _SPAN_AT_TOP - 1, 0, lo, 17, lo + _SPAN_AT_TOP - 1])
        return np.array([6, 1, 6, 6, 0, 1]), secondary, 1
    if name == "bound_above_int64_max":
        lo = -5
        secondary = np.array([lo, lo + _SPAN_AT_TOP, 0, lo, 17, lo + _SPAN_AT_TOP])
        return np.array([6, 1, 6, 6, 0, 1]), secondary, 2
    if name == "negative_and_equal":
        return np.array([2, 2, 1, 1, 2, 1, 2]), np.array([-7, -7, 3, -7, 3, -2**63, 3]), 2
    if name == "one_cell":
        return np.array([1]), np.array([-9]), 1
    if name == "discrete_primary_small_values":
        return rng.permutation(400) + 1, rng.integers(0, 1000, 400), 1
    if name == "discrete_primary_large_values":
        return rng.permutation(400) + 1, rng.integers(-2**62, 2**62, 400), 2
    raise AssertionError(name)


@pytest.mark.parametrize(
    "name",
    [
        "random",
        "bound_at_int64_max",
        "bound_above_int64_max",
        "negative_and_equal",
        "one_cell",
        "discrete_primary_small_values",
        "discrete_primary_large_values",
    ],
)
def test_lex_rank_matches_sorted_tuple_ranks(name, monkeypatch):
    """Direct key (one sort) and dense-rank fallback (two sorts) rank alike."""
    primary, secondary, sorts = _rank_case(name)
    primary, secondary = primary.astype(np.int64), secondary.astype(np.int64)
    calls = []
    real = graph._dense_rank
    monkeypatch.setattr(graph, "_dense_rank", lambda v, out: calls.append(1) or real(v, out))
    ranks, count = graph._lex_rank(primary, secondary)
    expected = sorted_tuple_ranks(list(zip(primary.tolist(), secondary.tolist())))
    assert ranks.tolist() == expected
    assert count == max(expected)
    assert len(calls) == sorts


def test_is_refinement_basic_direction():
    coarse = validate([[1, 1], [1, 1]])
    fine = rainbow_refine(coarse)
    assert is_refinement(fine, coarse)
    assert not is_refinement(coarse, fine)
    assert is_refinement(coarse, coarse)


@pytest.mark.parametrize("seed", range(6))
def test_is_refinement_transitive_along_chains(seed):
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(2, 8))
    x = validate(random_grid(rng, n, 2))
    y = refine_by(x, rng.integers(0, 2, size=(n, n), dtype=np.int64)).result
    z = refine_by(y, rng.integers(0, 2, size=(n, n), dtype=np.int64)).result
    assert is_refinement(y, x) and is_refinement(z, y) and is_refinement(z, x)
    if is_refinement(x, y):
        assert is_same_partition(x, y)


def test_is_refinement_size_mismatch():
    with pytest.raises(InputError):
        is_refinement(validate([[1]]), validate([[1, 2], [2, 1]]))


def test_is_same_partition_ignores_color_names():
    x = validate([[1, 2], [2, 1]])
    y = ColorMatrix(np.array([[2, 1], [1, 2]]), 2)
    assert is_same_partition(x, y)
    assert not is_same_partition(x, validate([[1, 1], [1, 2]]))


def test_partition_view_and_counts():
    x = validate([[1, 2, 2], [2, 1, 2], [2, 2, 1]])
    sizes = sorted(color_counts(x))
    assert len(sizes) == x.r == 2
    assert sizes == [3, 6]
    assert sum(sizes) == x.n * x.n
    assert color_counts(x) == (3, 6)


def test_normalize_by_value_sorts_by_original_id():
    a = normalize_by_value([[9, 5], [5, 9]])
    assert a.cells.tolist() == [[2, 1], [1, 2]]
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
    assert partition_of(y.cells) != () and sorted(color_counts(y)) == sorted(color_counts(x))


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
