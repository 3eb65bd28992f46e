"""Tests for the axiom verifier and the fixture catalog."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from wlclosure.classical import classical_closure, classical_step
from wlclosure.coherence import fixture_names, make_fixture, verify_coherent
from wlclosure.graph import InputError, is_rainbow, permute_vertices, rainbow_refine, validate

from oracles import random_grid


def recount_pair(x, cell, pair):
    """Recompute one intersection count straight off the raw grid."""
    u, v = cell
    left, right = pair
    return sum(
        1 for w in range(x.n) if x.cells[u, w] == left and x.cells[w, v] == right
    )


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
def test_trivial_fixture_is_coherent(n):
    report = verify_coherent(make_fixture("trivial", n))
    assert report.coherent and report.witness is None


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_cyclic_fixture_is_coherent(n):
    assert verify_coherent(make_fixture("cyclic", n)).coherent


def test_strongly_regular_fixtures_are_coherent():
    assert verify_coherent(make_fixture("cycle5")).coherent
    assert verify_coherent(make_fixture("petersen")).coherent


@pytest.mark.parametrize("n", [3, 4, 5, 9])
def test_path_fixture_not_coherent_beyond_two_vertices(n):
    report = verify_coherent(make_fixture("path", n))
    assert not report.coherent
    assert report.witness is not None


def test_uniform_matrix_fails_diagonal_axiom():
    report = verify_coherent(validate([[1, 1], [1, 1]]))
    assert not report.coherent
    w = report.witness
    assert w.kind == "diagonal_overlap"
    u, v = w.second_cell
    assert u != v
    first_u, first_v = w.first_cell
    assert first_u == first_v


def test_transpose_witness_names_conflicting_cells():
    x = validate([[1, 2, 2], [3, 1, 4], [2, 4, 1]])
    report = verify_coherent(x)
    assert not report.coherent
    w = report.witness
    assert w.kind == "transpose_split"
    assert w.first_cell == (0, 1) and w.second_cell == (0, 2)
    (a, b), (c, d) = w.first_cell, w.second_cell
    assert x.cells[a, b] == x.cells[c, d]
    assert x.cells[b, a] != x.cells[d, c]


def test_profile_witness_is_replayable_on_path4():
    x = make_fixture("path", 4)
    report = verify_coherent(x)
    w = report.witness
    assert w.kind == "profile_mismatch"
    assert x.cells[w.first_cell] == x.cells[w.second_cell]
    assert recount_pair(x, w.first_cell, w.pair) != recount_pair(x, w.second_cell, w.pair)


@pytest.mark.parametrize("seed", range(10))
def test_profile_witnesses_replay_on_random_rainbow_inputs(seed):
    rng = np.random.default_rng(1400 + seed)
    x = rainbow_refine(validate(random_grid(rng, int(rng.integers(4, 14)), 2)))
    report = verify_coherent(x)
    if report.coherent:
        return
    w = report.witness
    assert w.kind == "profile_mismatch"  # rainbow inputs satisfy the other two axioms
    assert recount_pair(x, w.first_cell, w.pair) != recount_pair(x, w.second_cell, w.pair)


@pytest.mark.parametrize("seed", range(15))
def test_verifier_agrees_with_refinement_stability(seed):
    """Coherent <=> rainbow and no exact step splits; both oracles must agree."""
    rng = np.random.default_rng(1500 + seed)
    n = int(rng.integers(2, 14))
    raw = validate(random_grid(rng, n, int(rng.integers(1, 5))))
    for x in (raw, rainbow_refine(raw), classical_closure(raw).closure):
        expected = is_rainbow(x) and not classical_step(x).refined
        assert verify_coherent(x).coherent == expected


@pytest.mark.parametrize("seed", range(5))
def test_verdict_invariant_under_permutation_and_relabel(seed):
    rng = np.random.default_rng(1600 + seed)
    n = int(rng.integers(2, 10))
    x = validate(random_grid(rng, n, 3))
    verdict = verify_coherent(x).coherent
    permuted = permute_vertices(x, rng.permutation(n))
    relabeled = validate((x.r + 1) - x.cells)
    assert verify_coherent(permuted).coherent == verdict
    assert verify_coherent(relabeled).coherent == verdict


def test_closures_pass_the_verifier():
    for seed in range(5):
        rng = np.random.default_rng(1700 + seed)
        x = validate(random_grid(rng, int(rng.integers(2, 24)), 3))
        assert verify_coherent(classical_closure(x).closure).coherent


def test_fixture_catalog_and_arity_errors():
    assert set(fixture_names()) == {"trivial", "cyclic", "path", "cycle5", "petersen", "random"}
    with pytest.raises(InputError):
        make_fixture("nonesuch")
    with pytest.raises(InputError):
        make_fixture("cycle5", 5)
    with pytest.raises(InputError):
        make_fixture("trivial")
    with pytest.raises(InputError):
        make_fixture("random", 5, 2)


def test_fixture_parameter_validation():
    with pytest.raises(InputError):
        make_fixture("trivial", 0)
    with pytest.raises(InputError):
        make_fixture("path", 1)
    with pytest.raises(InputError):
        make_fixture("random", 3, 0, 1)


def test_fixture_shapes_and_colors():
    p2 = make_fixture("path", 2)
    assert p2.cells.tolist() == make_fixture("trivial", 2).cells.tolist()

    cyc = make_fixture("cyclic", 6)
    assert cyc.r == 6
    assert sorted(cyc.cells[0].tolist()) == [1, 2, 3, 4, 5, 6]

    pet = make_fixture("petersen")
    assert pet.n == 10 and pet.r == 3
    edge_color = pet.cells[0, np.argmax(pet.cells[0] != pet.cells[0, 0])]
    row_profile = Counter(pet.cells[0].tolist())
    assert sorted(row_profile.values()) == [1, 3, 6]  # loop, 3 neighbors, 6 others
    assert pet.cells.tolist() == pet.cells.T.tolist()
    assert int(edge_color) in (2, 3)


def test_random_fixture_is_seeded():
    a = make_fixture("random", 8, 3, 123)
    b = make_fixture("random", 8, 3, 123)
    c = make_fixture("random", 8, 3, 124)
    assert a.cells.tolist() == b.cells.tolist()
    assert a.cells.tolist() != c.cells.tolist()
