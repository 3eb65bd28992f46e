"""Tests for the exact refinement engine, held against brute-force oracles."""

from __future__ import annotations

import numpy as np
import pytest

from wlclosure import classical
from wlclosure.classical import classical_closure, classical_step, iteration_budget
from wlclosure.coherence import make_fixture, verify_coherent
from wlclosure.graph import (
    InputError,
    is_discrete,
    is_refinement,
    is_same_partition,
    permute_vertices,
    rainbow_refine,
    validate,
)

from oracles import (
    brute_closure,
    brute_step,
    noncommutative_product,
    partition_of,
    python_refine_by,
    random_grid,
)


def test_noncommutative_product_frozen_2x2():
    fp = noncommutative_product([[1, 2], [2, 1]])
    assert fp.n == 2
    assert fp.cells[0][0] == (((1, 1), 1), ((2, 2), 1))
    assert fp.cells[0][1] == (((1, 2), 1), ((2, 1), 1))
    assert fp.cells[1][0] == (((1, 2), 1), ((2, 1), 1))
    assert fp.cells[1][1] == (((1, 1), 1), ((2, 2), 1))


def test_noncommutative_product_uniform_counts():
    fp = noncommutative_product([[1, 1], [1, 1]])
    assert fp.cells[0][0] == (((1, 1), 2),)
    assert fp.cells[1][0] == (((1, 1), 2),)


def test_noncommutative_product_single_vertex():
    fp = noncommutative_product([[1]])
    assert fp.cells == (((((1, 1), 1),),),)


@pytest.mark.parametrize("seed", range(15))
def test_classical_step_equals_literal_fingerprint_refinement(seed):
    """The packed byte-key fast path must rank exactly like the tuple fingerprints."""
    rng = np.random.default_rng(400 + seed)
    n = int(rng.integers(1, 15))
    x = validate(random_grid(rng, n, int(rng.integers(1, 7))))
    if seed % 2:
        x = rainbow_refine(x)
    fast = classical_step(x)
    grid = x.cells.tolist()
    refined, expected = python_refine_by(grid, noncommutative_product(grid).cells)
    assert fast.result.cells.tolist() == expected
    assert fast.refined == refined


@pytest.mark.parametrize("seed", range(10))
def test_classical_step_matches_brute_oracle(seed):
    rng = np.random.default_rng(500 + seed)
    n = int(rng.integers(2, 12))
    x = rainbow_refine(validate(random_grid(rng, n, 3)))
    _, brute = brute_step(x.cells.tolist())
    ours = classical_step(x)
    assert partition_of(ours.result.cells) == partition_of(brute)


@pytest.mark.parametrize(
    "fixture",
    [("trivial", 5), ("cyclic", 6), ("cycle5",), ("petersen",), ("trivial", 1)],
)
def test_classical_step_fixes_coherent_fixtures(fixture):
    x = make_fixture(*fixture)
    out = classical_step(x)
    assert not out.refined
    assert out.result.cells.tolist() == x.cells.tolist()


def test_classical_closure_uniform_k4():
    res = classical_closure(validate([[1] * 4] * 4))
    assert res.closure.r == 2
    assert res.iterations == 1
    assert res.trace == (2,)
    assert res.stopping_reason == "stable"


def test_classical_closure_single_vertex_is_input():
    res = classical_closure(validate([[1]]))
    assert res.closure.cells.tolist() == [[1]]
    assert res.closure.r == 1
    # one cell is already discrete: the run takes no step
    assert (res.iterations, res.trace, res.stopping_reason) == (0, (), "discrete")


def test_classical_closure_stops_once_discrete(monkeypatch):
    """A random n=64 input is discrete after one step, so the run stops there
    with the closure that iterating ``classical_step`` by hand reaches."""
    x = validate(random_grid(np.random.default_rng(19), 64, 3))
    res = classical_closure(x)
    assert (res.iterations, res.trace, res.stopping_reason) == (1, (64 * 64,), "discrete")
    current = rainbow_refine(x)
    while (out := classical_step(current)).refined:
        current = out.result
    assert res.closure.cells.tolist() == current.cells.tolist()
    monkeypatch.setattr(classical, "is_discrete", lambda c: False)
    full = classical_closure(x)
    assert (full.iterations, full.trace, full.stopping_reason) == (2, (4096, 4096), "stable")
    assert full.closure.cells.tolist() == res.closure.cells.tolist()


def test_classical_closure_path3_splits_middle_vertex():
    res = classical_closure(make_fixture("path", 3))
    closure = res.closure
    # end-vertex loops stay together, the middle loop gets its own class
    assert closure.cells[0, 0] == closure.cells[2, 2]
    assert closure.cells[0, 0] != closure.cells[1, 1]
    assert verify_coherent(closure).coherent


@pytest.mark.parametrize("seed", range(12))
def test_classical_closure_matches_brute_closure(seed):
    rng = np.random.default_rng(600 + seed)
    n = int(rng.integers(2, 13))
    grid = random_grid(rng, n, int(rng.integers(1, 5)))
    ours = classical_closure(validate(grid))
    brute = brute_closure(validate(grid).cells.tolist())
    assert partition_of(ours.closure.cells) == partition_of(brute)


@pytest.mark.parametrize("seed", range(6))
def test_classical_closure_is_a_fixed_point(seed):
    rng = np.random.default_rng(700 + seed)
    x = validate(random_grid(rng, int(rng.integers(2, 20)), 3))
    closure = classical_closure(x).closure
    assert not classical_step(closure).refined
    assert verify_coherent(closure).coherent


@pytest.mark.parametrize("seed", range(6))
def test_classical_closure_trace_monotone_and_refining(seed):
    rng = np.random.default_rng(800 + seed)
    x = validate(random_grid(rng, int(rng.integers(2, 16)), 2))
    start = rainbow_refine(x)
    res = classical_closure(x)
    # a discrete start takes no step; any other run takes at least one
    assert res.iterations == len(res.trace) >= (0 if is_discrete(start) else 1)
    counts = (start.r, *res.trace)
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == res.closure.r
    assert res.stopping_reason == ("discrete" if is_discrete(res.closure) else "stable")
    assert is_refinement(res.closure, start)


@pytest.mark.parametrize("seed", range(8))
def test_classical_closure_canonical_under_vertex_permutation(seed):
    """closure(permuted x) must equal permuted closure(x), identical ids included."""
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(2, 14))
    x = validate(random_grid(rng, n, int(rng.integers(1, 5))))
    perm = rng.permutation(n)
    direct = classical_closure(permute_vertices(x, perm)).closure
    routed = permute_vertices(classical_closure(x).closure, perm)
    assert direct.cells.tolist() == routed.cells.tolist()


def test_classical_closure_partition_survives_color_relabel():
    rng = np.random.default_rng(17)
    x = validate(random_grid(rng, 9, 4))
    relabeled = validate((x.r + 1) - x.cells)  # reverse the color ids
    assert is_same_partition(
        classical_closure(x).closure, classical_closure(relabeled).closure
    )


def test_iteration_budget_frozen_values():
    assert iteration_budget(8, 1.0) == 24
    assert iteration_budget(10, 2.0) == 67
    assert iteration_budget(1, 123.0) == 1
    assert iteration_budget(2) == 2


def test_iteration_budget_rejects_bad_arguments():
    with pytest.raises(InputError):
        iteration_budget(0)
    with pytest.raises(InputError):
        iteration_budget(4, 0.0)
