"""Tests for the axiom verifier and the fixture catalog."""

from __future__ import annotations

import gc
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from wlclosure import classical, probabilistic
from wlclosure.classical import classical_closure, classical_step
from wlclosure.coherence import fixture_names, make_fixture, verify_coherent
from wlclosure.graph import InputError, is_rainbow, permute_vertices, rainbow_refine, validate

from oracles import python_verify_coherent, random_grid


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
        assert python_verify_coherent(classical_closure(x).closure).coherent


GEN_FIXTURES = [
    ("trivial", 6),
    ("cyclic", 7),
    ("path", 9),
    ("cycle5",),
    ("petersen",),
    ("random", 8, 3, 11),
    ("random", 12, 2, 12),
]


@pytest.mark.parametrize("args", GEN_FIXTURES)
def test_package_report_equals_oracle_on_gen_fixtures(args):
    x = make_fixture(*args)
    assert verify_coherent(x) == python_verify_coherent(x)


def _seeded_colorings(rng):
    """Colorings that reach each verdict: raw grids mostly overlap the
    diagonal, asymmetric grids with their own loop color split transposes,
    symmetric ones with distinct loop colors mismatch profiles, and closures
    are coherent."""
    n, r = int(rng.integers(2, 11)), int(rng.integers(1, 5))
    raw = random_grid(rng, n, r)
    asymmetric = raw + 1
    np.fill_diagonal(asymmetric, 1)
    symmetric = np.triu(raw) + np.triu(raw, 1).T
    np.fill_diagonal(symmetric, r + 1 + rng.integers(0, 2, size=n))
    x = validate(raw)
    return [x, validate(asymmetric), validate(symmetric), classical_closure(x).closure]


def test_package_report_equals_oracle_on_seeded_colorings():
    rng = np.random.default_rng(1800)
    kinds = Counter()
    for _ in range(200):
        for x in _seeded_colorings(rng):
            expected = python_verify_coherent(x)
            assert verify_coherent(x) == expected, x.cells.tolist()
            kinds[expected.witness.kind if expected.witness else "coherent"] += 1
    assert set(kinds) == {"diagonal_overlap", "transpose_split", "profile_mismatch", "coherent"}
    assert min(kinds.values()) >= 100, kinds


@pytest.mark.parametrize("cells_per_block", [1, 3, 7])
def test_profile_witness_past_a_block_boundary(monkeypatch, cells_per_block):
    """Blocks of a few cells: every report still equals the oracle's, and
    most witnesses lie past the first block.  The inputs are closures of
    permuted paths, coherent and scanned to the end, and the same closures
    with the class of one arc merged into its reverse's, which leaves a
    profile mismatch somewhere in the grid."""
    rng = np.random.default_rng(1900)
    past_first_block = 0
    for _ in range(30):
        n = int(rng.integers(4, 12))
        closure = classical_closure(permute_vertices(make_fixture("path", n), rng.permutation(n)))
        cells = closure.closure.cells.copy()
        cells[cells == cells[n - 2, n - 1]] = cells[n - 1, n - 2]
        row_bytes = n * classical._row_dtype(closure.closure.r).itemsize
        monkeypatch.setattr(classical, "_BLOCK_BYTES", cells_per_block * row_bytes)
        for x in (closure.closure, validate(cells)):
            report = verify_coherent(x)
            assert report == python_verify_coherent(x)
            if not report.coherent:
                u, v = report.witness.second_cell
                past_first_block += u * n + v >= cells_per_block
    assert past_first_block >= 20


def test_verifier_working_set_is_block_bounded():
    """The check on a permuted path(1024) stays within 64 MiB traced; the
    Counter verifier held one Counter per color, 752 MiB on a path(256)
    closure."""
    x = permute_vertices(make_fixture("path", 1024), np.random.default_rng(5).permutation(1024))
    gc.collect()
    tracemalloc.start()
    try:
        report = verify_coherent(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.witness.kind == "profile_mismatch"
    assert peak <= 64 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


def test_verifier_guard_estimate_tracks_the_traced_peak(monkeypatch):
    """The check's estimate is within [1, 2] times its traced peak on a
    coherent input, which is scanned to the end: a budget of 0.9 x the peak
    refuses it, one of 2 x the peak admits it."""
    x = make_fixture("cyclic", 128)
    gc.collect()
    tracemalloc.start()
    try:
        assert verify_coherent(x).coherent
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(probabilistic, "_memory_budget", lambda: int(0.9 * peak))
    with pytest.raises(probabilistic.ResourceGuardError, match="exact check .* at n=128"):
        verify_coherent(x)
    monkeypatch.setattr(probabilistic, "_memory_budget", lambda: 2 * peak)
    assert verify_coherent(x).coherent


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


def test_random_fixture_rejects_a_negative_seed():
    with pytest.raises(InputError, match="seed must be >= 0, got -1"):
        make_fixture("random", 4, 2, -1)
    assert make_fixture("random", 4, 2, 0).n == 4
