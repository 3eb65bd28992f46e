"""Colorings at the id dtype boundaries, diffed against the int64 oracles.

A coloring's ids are stored in the smallest unsigned dtype that holds its
color count ``r``: uint8 up to 255, uint16 up to 65,535, uint32 above.  The
colorings here sit on both sides of each step -- ``r`` = 254, 255, 256,
65,534, 65,535 and 65,536 -- where every computation that can leave the id
dtype (the rainbow sentinel ``r + 1``, packed rank keys, pair codes, the
writer's run of first occurrences) must widen first.
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from wlclosure import graph
from wlclosure.classical import classical_step
from wlclosure.coherence import make_fixture, verify_coherent
from wlclosure.graph import (
    ColorMatrix,
    InputError,
    is_rainbow,
    is_same_partition,
    normalize_by_value,
    rainbow_refine,
    refine_by,
    validate,
)
from wlclosure.io import format_graph_text, input_digest

from oracles import (
    assert_color_matrix_invariant,
    brute_is_rainbow,
    brute_is_refinement,
    brute_rainbow,
    fingerprint_step,
    partition_of,
    python_first_occurrence_relabel,
    python_format_graph_text,
    python_refine_by,
    python_verify_coherent,
    sorted_tuple_ranks,
)


def _grid(n: int, merges: int, seed: int = 5) -> np.ndarray:
    """Ids ``1..n**2`` in a seeded order, then ``merges`` ids folded into
    others.  One merge gives the last loop the color of the arc ``(0, 1)``,
    so the largest id first occurs one cell before the end.  Two give the
    arcs ``(2, 3)`` and ``(3, 2)`` the colors of ``(0, 1)`` and ``(1, 0)``,
    which keeps the reverse colors consistent.  Ids are spread out (times
    3), so they are renumbered."""
    grid = np.random.default_rng(seed).permutation(n * n).reshape(n, n) * 3 + 7
    if merges == 1:
        grid[-1, -1] = grid[0, 1]
    if merges == 2:
        grid[2, 3], grid[3, 2] = grid[0, 1], grid[1, 0]
    return grid


# name: (n, merges); r = n**2 - merges
_CASES = {
    "r254": (16, 2),
    "r255": (16, 1),
    "r256": (16, 0),
    "r65534": (256, 2),
    "r65535": (256, 1),
    "r65536": (256, 0),
}


def _case(name):
    n, merges = _CASES[name]
    raw = _grid(n, merges)
    return raw, validate(raw)


@pytest.mark.parametrize("name", list(_CASES))
def test_validate_and_normalize_by_value_at_the_boundary(name):
    raw, x = _case(name)
    n, merges = _CASES[name]
    expected, r = python_first_occurrence_relabel(raw.ravel().tolist())
    assert x.r == r == n * n - merges
    assert_color_matrix_invariant(x)
    assert x.cells.ravel().tolist() == expected
    by_value, ids = normalize_by_value(raw)
    assert_color_matrix_invariant(by_value)
    assert by_value.cells.ravel().tolist() == sorted_tuple_ranks([(v,) for v in raw.ravel().tolist()])
    assert ids.tolist() == sorted(set(raw.ravel().tolist()))


@pytest.mark.parametrize("r", [255, 65535])
def test_relabel_of_ids_with_absent_ids_at_the_boundary(r):
    """``r`` ids up to ``n**2``, some below the largest absent, out of
    first-occurrence order: the ranks of their first positions count
    ``r + 1``, absent ids sharing the last, which leaves the id dtype of
    ``r``; the labels are gathered back into it."""
    n = 16 if r == 255 else 256
    rng = np.random.default_rng(r)
    ids = rng.permutation(n * n)[:r] + 1
    flat = rng.permutation(np.concatenate((ids, rng.choice(ids, n * n - r))))
    assert ids.max() > r and flat[0] != 1
    x = validate(flat.reshape(n, n))
    expected, expected_r = python_first_occurrence_relabel(flat.tolist())
    assert x.r == expected_r == r and x.cells.dtype == np.min_scalar_type(r)
    assert x.cells.ravel().tolist() == expected
    assert_color_matrix_invariant(x)


@pytest.mark.parametrize("r", [255, 256, 65535, 65536])
def test_color_matrix_converts_to_the_id_dtype_after_checking_the_ids(r):
    n = 16 if r <= 256 else 256
    cells = np.arange(1, n * n + 1, dtype=np.int64).reshape(n, n)
    cells[cells > r] = 1
    x = ColorMatrix(cells, r)
    assert_color_matrix_invariant(x)
    assert x.cells.tolist() == cells.tolist()
    # an id one past r, which the id dtype would wrap into range, is refused
    wraps = cells.copy()
    wraps[cells == 2] = np.iinfo(np.min_scalar_type(r)).max + 2
    with pytest.raises(InputError):
        ColorMatrix(wraps, r)


@pytest.mark.parametrize("name", list(_CASES))
def test_rainbow_and_its_predicates_at_the_boundary(name):
    """255 colors make the rainbow sentinel 256; the keys ``own * span +
    reverse`` pass every id dtype's range."""
    _, x = _case(name)
    rainbow = rainbow_refine(x)
    assert_color_matrix_invariant(rainbow)
    grid = x.cells.tolist()
    assert rainbow.cells.tolist() == brute_rainbow(grid)
    assert is_rainbow(x) == brute_is_rainbow(grid)
    assert is_rainbow(rainbow) and brute_is_rainbow(rainbow.cells.tolist())
    for fine, coarse in ((rainbow, x), (x, rainbow)):
        expected = fine.r == coarse.r and brute_is_refinement(fine, coarse)
        assert is_same_partition(fine, coarse) == expected


@pytest.mark.parametrize("name", list(_CASES))
@pytest.mark.parametrize("values_dtype", [np.int64, np.uint8])
def test_refine_by_at_the_boundary(name, values_dtype):
    _, x = _case(name)
    values = np.random.default_rng(7).integers(0, 3, size=x.cells.shape).astype(values_dtype)
    refined, grid = python_refine_by(x.cells.tolist(), values.tolist())
    out = refine_by(x, values.astype(np.int64))
    assert_color_matrix_invariant(out.result)
    assert (out.refined, out.result.cells.tolist()) == (refined, grid)


def test_sentinel_input_has_255_colors():
    """The r255 case is the input whose rainbow sentinel leaves uint8."""
    _, x = _case("r255")
    assert x.r == 255 and x.cells.dtype == np.uint8
    assert rainbow_refine(x).cells.dtype == np.uint16


@pytest.mark.parametrize("name", list(_CASES))
def test_write_and_digest_at_the_boundary(name):
    _, x = _case(name)
    # validated ids already run 1..r in first-occurrence order; with one
    # merge a cell follows the largest id the dtype holds
    assert graph._in_first_occurrence_order(x.cells.ravel(), x.r)
    relabel = np.random.default_rng(3).permutation(x.r) + 1
    shuffled = ColorMatrix(relabel[x.cells.astype(np.int64) - 1], x.r)
    for y in (x, rainbow_refine(x), shuffled):
        text = python_format_graph_text(y.cells.tolist())
        assert format_graph_text(y) == text
        assert input_digest(y) == hashlib.sha256(text.encode("ascii")).hexdigest()
        assert format_graph_text(y, canonical=False) == python_format_graph_text(
            y.cells.tolist(), canonical=False
        )


@pytest.mark.parametrize("name", list(_CASES))
def test_verify_coherent_witnesses_at_the_boundary(name):
    """One merge puts a loop color on an arc; two leave a class of two
    cells whose pair codes ``c(u, w) * (r + 1) + c(w, v)`` exceed the id
    dtype, and whose counts differ."""
    _, x = _case(name)
    for y in (x, rainbow_refine(x)):
        assert verify_coherent(y) == python_verify_coherent(y)
    kinds = {0: None, 1: "diagonal_overlap", 2: "profile_mismatch"}
    witness = verify_coherent(x).witness
    assert (witness and witness.kind) == kinds[_CASES[name][1]]


@pytest.mark.parametrize("n", [255, 256])
def test_coherent_cyclic_graphs_with_255_and_256_colors(n):
    """cyclic(n) is coherent; its classes of n cells are all checked row
    by row, with pair codes up to (n + 1)**2 - 1."""
    x = make_fixture("cyclic", n)
    assert x.r == n and x.cells.dtype == np.min_scalar_type(n)
    assert verify_coherent(x).coherent
    out = classical_step(x)
    assert not out.refined and out.result is x


@pytest.mark.parametrize("name", ["r254", "r255", "r256", "r65535"])
def test_classical_step_at_the_boundary(name):
    _, x = _case(name)
    # the n = 256 oracle takes seconds: there only the rainbow is stepped
    for y in (x, rainbow_refine(x))[x.n > 16 :]:
        out = classical_step(y)
        assert_color_matrix_invariant(out.result)
        refined, expected = fingerprint_step(y.cells, y.r)
        assert out.refined == refined
        assert partition_of(out.result.cells) == partition_of(expected)


def test_validate_traces_little_beside_its_output():
    """The first-position search takes its positions one block at a time:
    validating a 3-color 1024 x 1024 grid traces at most 2 MiB beside the
    1 MiB coloring it returns (an n**2 int64 position array was 8 MiB)."""
    n = 1024
    raw = np.random.default_rng(11).integers(1, 4, size=(n, n)).astype(np.int32)
    gc.collect()
    tracemalloc.start()
    try:
        x = validate(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.r == 3 and x.cells.nbytes == n * n
    assert peak <= x.cells.nbytes + 2 * 2**20, f"{peak / 2**20:.2f} MiB"
