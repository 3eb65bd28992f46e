"""Tests for the exact refinement engine, held against brute-force oracles."""

from __future__ import annotations

import gc
import os
import tracemalloc

import numpy as np
import pytest

from wlclosure import classical, probabilistic
from wlclosure.classical import classical_closure, classical_step
from wlclosure.coherence import make_fixture
from wlclosure.graph import (
    InputError,
    is_discrete,
    is_refinement,
    is_same_partition,
    permute_vertices,
    rainbow_refine,
    validate,
)
from wlclosure.probabilistic import (
    RandomSubstitution,
    draw_substitution,
    iteration_budget,
    monte_carlo_bytes,
)

from oracles import (
    brute_closure,
    brute_rainbow,
    brute_step,
    fingerprint_step,
    noncommutative_product,
    partition_of,
    python_matmul,
    python_refine_by,
    python_splitmix64,
    python_verify_coherent,
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
    """The checked product step cuts exactly the classes of the tuple
    fingerprints, with the ids of its own product."""
    rng = np.random.default_rng(400 + seed)
    n = int(rng.integers(1, 15))
    x = validate(random_grid(rng, n, int(rng.integers(1, 7))))
    if seed % 2:
        x = rainbow_refine(x)
    fast = classical_step(x)
    grid = x.cells.tolist()
    refined, expected = python_refine_by(grid, noncommutative_product(grid).cells)
    assert partition_of(fast.result.cells) == partition_of(expected)
    assert fast.refined == refined
    _assert_matches_fingerprint_reference(x)


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
    monkeypatch.setattr(probabilistic, "is_discrete", lambda c: False)
    full = classical_closure(x)
    assert (full.iterations, full.trace, full.stopping_reason) == (2, (4096, 4096), "stable")
    assert full.closure.cells.tolist() == res.closure.cells.tolist()


def test_classical_closure_path3_splits_middle_vertex():
    res = classical_closure(make_fixture("path", 3))
    closure = res.closure
    # end-vertex loops stay together, the middle loop gets its own class
    assert closure.cells[0, 0] == closure.cells[2, 2]
    assert closure.cells[0, 0] != closure.cells[1, 1]
    assert python_verify_coherent(closure).coherent


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
    assert python_verify_coherent(closure).coherent


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


# --- the checked product step against the byte-key fingerprint reference ---


def _assert_canonical(x, out):
    """The step on a vertex-permuted ``x`` is ``out`` permuted, cell for cell."""
    perm = np.random.default_rng(x.n).permutation(x.n)
    moved = classical_step(permute_vertices(x, perm)).result
    assert moved.cells.tolist() == permute_vertices(out.result, perm).cells.tolist()


def _assert_matches_fingerprint_reference(x):
    """The step cuts the reference's classes, with ids ranking ``(old color,
    product)`` under its own substitution, and is canonical."""
    out = classical_step(x)
    refined, expected = fingerprint_step(x.cells, x.r)
    assert partition_of(out.result.cells) == partition_of(expected)
    assert out.refined == refined
    sub = classical._exact_substitution(x.n, x.r)
    left, right = (table[x.cells].tolist() for table in (sub.left, sub.right))
    grid = x.cells.tolist()
    assert out.result.cells.tolist() == python_refine_by(grid, python_matmul(left, right))[1]
    _assert_canonical(x, out)


@pytest.mark.parametrize("rainbow", [False, True])
@pytest.mark.parametrize("n", range(1, 41))
def test_classical_step_matches_fingerprint_reference(n, rainbow):
    rng = np.random.default_rng(1000 + n)
    x = validate(random_grid(rng, n, int(rng.integers(1, 8))))
    _assert_matches_fingerprint_reference(rainbow_refine(x) if rainbow else x)


def test_classical_step_matches_fingerprint_reference_on_every_path_step():
    n = 40
    x = permute_vertices(make_fixture("path", n), np.random.default_rng(7).permutation(n))
    current = rainbow_refine(x)
    steps = 0
    while True:
        _assert_matches_fingerprint_reference(current)
        out = classical_step(current)
        steps += 1
        if not out.refined:
            break
        current = out.result
    assert steps >= 5 and current.r == n * n // 2


@pytest.mark.parametrize(
    "fixture",
    [
        ("trivial", 1),
        ("trivial", 5),
        ("cyclic", 6),
        ("path", 9),
        ("cycle5",),
        ("petersen",),
        ("random", 12, 3, 4),
    ],
)
def test_classical_step_matches_fingerprint_reference_on_fixtures(fixture):
    x = make_fixture(*fixture)
    _assert_matches_fingerprint_reference(x)
    _assert_matches_fingerprint_reference(rainbow_refine(x))


def test_classical_step_int32_rows_match_fingerprint_reference():
    x = validate(random_grid(np.random.default_rng(31), 30, 900))
    assert x.r > 180 and classical._row_dtype(x.r) == np.int32  # (181 + 1)**2 > 2**15 - 1
    _assert_matches_fingerprint_reference(x)
    _assert_matches_fingerprint_reference(rainbow_refine(x))


def test_classical_step_int64_rows_match_fingerprint_reference():
    """n=216 is the smallest size with more than 46,340 colors, where
    (r + 1)**2 no longer fits in int32: a permutation with 300 pairs merged."""
    n, merged = 216, 300
    flat = np.random.default_rng(32).permutation(n * n) + 1
    flat[:merged] = flat[merged : 2 * merged]
    x = validate(flat.reshape(n, n))
    assert x.r == n * n - merged and classical._row_dtype(x.r) == np.int64
    _assert_matches_fingerprint_reference(x)


def test_row_dtype_is_the_narrowest_that_holds_every_code():
    assert classical._row_dtype(1) == np.int16
    assert classical._row_dtype(180) == np.int16  # 181**2 - 1 == 32760
    assert classical._row_dtype(181) == np.int32
    assert classical._row_dtype(46339) == np.int32  # 46340**2 < 2**31
    assert classical._row_dtype(46340) == np.int64


def test_exact_substitution_is_a_pinned_hash():
    """Color ``c`` gets splitmix64(2c) and splitmix64(2c + 1) reduced to
    ``1..m``: pinned values at n = 256, the same prefix for fewer colors,
    the values of a Python-integer SplitMix64, and its published first
    outputs seeded with 1234567.  The tables are uint32 with entry 0 equal
    to 0; the values at r = 40,000, over several mixed blocks, are pinned
    from the float64 tables the hash filled before."""
    sub = classical._exact_substitution(256, 8)
    assert sub.m == 5931641  # isqrt(2**53 // 256)
    assert sub.left.dtype == sub.right.dtype == np.uint32
    assert sub.left[0] == sub.right[0] == 0
    assert sub.left[1:].tolist() == [2814809, 1327802, 670932, 159137, 2894799, 3553413, 1894078, 4833637]
    assert sub.right[1:].tolist() == [4655393, 4229721, 5582721, 2248683, 3538000, 833682, 1429528, 5325465]
    fewer = classical._exact_substitution(256, 3)
    assert fewer.left.tolist() == sub.left.tolist()[:4]
    assert fewer.right.tolist() == sub.right.tolist()[:4]
    wide = classical._exact_substitution(1000, 300)
    for side, table in enumerate((wide.left, wide.right)):
        expected = [1 + python_splitmix64(2 * c + side) % wide.m for c in range(1, 301)]
        assert table[1:].tolist() == expected
    many = classical._exact_substitution(1000, 40_000)
    assert many.left[0] == many.right[0] == 0
    assert many.left[-3:].tolist() == [804350, 2276350, 2628386]
    assert many.right[-3:].tolist() == [1174844, 604341, 1315274]
    assert int(many.left.sum(dtype=np.uint64)) == 59968538429
    assert int(many.right.sum(dtype=np.uint64)) == 59969107033
    gamma = 0x9E3779B97F4A7C15
    states = [(1234567 + k * gamma) % 2**64 for k in range(5)]
    assert [python_splitmix64(z) for z in states] == classical._splitmix64(
        np.array(states, dtype=np.uint64)
    ).tolist() == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


def _constant_substitution(n, r):
    """Every color is 1 on both sides: every product is n, so each step is
    quiet in the product and every split is a collision."""
    return RandomSubstitution(2, np.ones(r + 1, dtype=np.uint32), np.ones(r + 1, dtype=np.uint32))


def _m2_substitution(n, r):
    return draw_substitution(r, 2, np.random.default_rng(n))


@pytest.mark.parametrize("block_bytes", [1, 54, 2**20])
def test_classical_step_blocks_match_fingerprint_reference(monkeypatch, block_bytes):
    """Rows are built and compared in blocks of one row, three rows (int16
    rows of n = 9 entries) and all cells: the step still equals the
    reference, and so does its split when every product collides."""
    path = permute_vertices(make_fixture("path", 9), np.random.default_rng(34).permutation(9))
    x = rainbow_refine(path)
    monkeypatch.setattr(classical, "_BLOCK_BYTES", block_bytes)
    sizes = []
    real = classical._sorted_codes

    def spy(cells, mirror, batch, base):
        sizes.append(len(batch))
        return real(cells, mirror, batch, base)

    monkeypatch.setattr(classical, "_sorted_codes", spy)
    _assert_matches_fingerprint_reference(x)
    block = min(max(1, block_bytes // 18), x.n * x.n)
    assert block // 2 < max(sizes) <= block
    monkeypatch.setattr(classical, "_exact_substitution", _constant_substitution)
    refined, expected = fingerprint_step(x.cells, x.r)
    out = classical_step(x)
    assert refined and out.refined
    assert partition_of(out.result.cells) == partition_of(expected)
    _assert_canonical(x, out)


@pytest.mark.parametrize("substitution", [_m2_substitution, _constant_substitution])
def test_forced_collisions_are_split_by_rows(monkeypatch, substitution):
    """A substitution under which distinct fingerprints share products: the
    row check finds the collisions, ``_rank_rows`` splits their classes, and
    every step equals the reference's partition and is canonical.  Checked
    on a rainbow random input and on every step of a permuted path(40)."""
    monkeypatch.setattr(classical, "_exact_substitution", substitution)
    ranked = []
    real = classical._rank_rows

    def spy(rows):
        ranked.append(len(rows))
        return real(rows)

    monkeypatch.setattr(classical, "_rank_rows", spy)
    x = rainbow_refine(validate(random_grid(np.random.default_rng(35), 12, 3)))
    path = permute_vertices(make_fixture("path", 40), np.random.default_rng(7).permutation(40))
    for current in (x, rainbow_refine(path)):
        ranked.clear()
        while True:
            out = classical_step(current)
            refined, expected = fingerprint_step(current.cells, current.r)
            assert partition_of(out.result.cells) == partition_of(expected)
            assert out.refined == refined
            _assert_canonical(current, out)
            if current is x or not out.refined:
                break
            current = out.result
        assert ranked
    assert current.r == 40 * 40 // 2


def _oracle_run(grid):
    """The brute-force exact run's partition and class count per step,
    stopped before a step on a discrete coloring, as the package's is."""
    current, trace = brute_rainbow(grid), []
    while len(partition_of(current)) < len(grid) ** 2:
        refined, current = brute_step(current)
        trace.append(len(partition_of(current)))
        if not refined:
            break
    return partition_of(current), tuple(trace)


@pytest.mark.parametrize("substitution", [None, _m2_substitution, _constant_substitution])
def test_las_vegas_closure_matches_the_oracle(monkeypatch, substitution):
    """The closure is the oracle's on rainbow(random(12, 3)) and permuted
    paths of 40 and 30 vertices, under the hashed substitution and under
    forced collisions; under collisions a check splits and the run still
    ends.  Every product step of the constant substitution is quiet, so
    each step is a check and every input splits; under ``m = 2`` only
    path(30) leaves a collision to its check.  The trace is the oracle's
    under the constant substitution and under the hashed one, which
    collides on no input."""
    if substitution is not None:
        monkeypatch.setattr(classical, "_exact_substitution", substitution)
    splits = []
    real = classical._split_collisions

    def spy(x, candidate, bad):
        splits.append(len(bad))
        return real(x, candidate, bad)

    monkeypatch.setattr(classical, "_split_collisions", spy)
    x = rainbow_refine(validate(random_grid(np.random.default_rng(35), 12, 3)))
    paths = [
        permute_vertices(make_fixture("path", n), np.random.default_rng(7).permutation(n))
        for n in (40, 30)
    ]
    split_inputs = []
    for start in (x, *paths):
        splits.clear()
        res = classical_closure(start)
        partition, trace = _oracle_run(start.cells.tolist())
        assert partition_of(res.closure.cells) == partition
        assert res.iterations == len(res.trace) and res.trace[-1] == res.closure.r
        assert res.stopping_reason == ("discrete" if res.closure.r == start.n**2 else "stable")
        if substitution is not _m2_substitution:
            assert res.trace == trace
        split_inputs.append(bool(splits))
    expected = {None: [False] * 3, _m2_substitution: [False, False, True]}
    assert split_inputs == expected.get(substitution, [True] * 3)


def test_las_vegas_check_on_a_permuted_path_1024_is_block_bounded(monkeypatch):
    """The run's one check, on the closure of a permuted path(1024) with
    n**2/2 classes and int64 rows, stays within 64 MiB traced and within
    the run's guard estimate; the closure is the orbit partition of the
    path's reversal, reached in the trace of a check after every step."""
    n = 1024
    perm = np.random.default_rng(5).permutation(n)
    x = permute_vertices(make_fixture("path", n), perm)
    u, v = np.divmod(np.arange(n * n), n)
    orbits = validate(np.minimum(u * n + v, (n - 1 - u) * n + n - 1 - v).reshape(n, n) + 1)
    peaks = []
    real = classical._checked

    def traced(x, candidate):
        gc.collect()
        tracemalloc.start()
        try:
            out = real(x, candidate)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(classical, "_checked", traced)
    res = classical_closure(x)
    assert res.trace == (12, 48, 192, 768, 3072, 12288, 49152, 196608, 524288, 524288)
    assert is_same_partition(res.closure, permute_vertices(orbits, perm))
    assert len(peaks) == 1
    assert peaks[0] <= min(64 * 2**20, monte_carlo_bytes(n, 1) + classical.KERNEL_BYTES), (
        f"traced peak {peaks[0] / 2**20:.2f} MiB"
    )


def test_las_vegas_run_is_refused_before_a_product_or_a_check(monkeypatch):
    """Just under the run's estimate, which covers its check, the guard
    raises before any product, rank or row is made."""
    x = permute_vertices(make_fixture("path", 12), np.random.default_rng(8).permutation(12))
    made = []
    for name in ("numeric_product", "refine_by", "row_mismatches"):
        monkeypatch.setattr(classical, name, lambda *a, name=name, **k: made.append(name))
    estimate = monte_carlo_bytes(12, 1) + classical.KERNEL_BYTES
    monkeypatch.setattr(probabilistic, "_memory_budget", lambda: estimate - 1)
    with pytest.raises(probabilistic.ResourceGuardError, match="exact step .* at n=12"):
        classical_closure(x)
    assert made == []


def test_classical_step_working_set_is_batch_bounded():
    """One step on rainbow(random(256, 3)), whose classes are ~5,000 cells,
    stays within 64 MiB; the per-cell byte-key step peaked at 158 MiB.  One
    step on rainbow(permuted path(256)), whose largest class holds most
    cells, stays within 16 MiB; ranking whole classes by rows took 37.5 MiB."""
    random = rainbow_refine(validate(random_grid(np.random.default_rng(3), 256, 3)))
    path = permute_vertices(make_fixture("path", 256), np.random.default_rng(4).permutation(256))
    for x, bound in ((random, 64), (rainbow_refine(path), 16)):
        gc.collect()
        tracemalloc.start()
        try:
            out = classical_step(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert is_discrete(out.result) if x is random else out.refined
        assert peak <= bound * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


def test_resource_guard_estimate_tracks_the_traced_peak(monkeypatch):
    """The guard's estimate is within [1, 2] times the real traced peak: a
    budget of 0.9 x the peak refuses the step, one of 2 x the peak admits it."""
    x = rainbow_refine(permute_vertices(make_fixture("path", 96), np.arange(96)[::-1]))
    # the first step in a process traces one-time allocations; they are not
    # the step's working set
    classical_step(x)
    gc.collect()
    tracemalloc.start()
    try:
        expected = classical_step(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(probabilistic, "_memory_budget", lambda: int(0.9 * peak))
    with pytest.raises(probabilistic.ResourceGuardError, match="MiB"):
        classical_step(x)
    monkeypatch.setattr(probabilistic, "_memory_budget", lambda: 2 * peak)
    assert classical_step(x).result.cells.tolist() == expected.result.cells.tolist()


def test_resource_guard_refuses_a_batch_over_budget(monkeypatch):
    x = make_fixture("path", 12)
    monkeypatch.setattr(probabilistic, "_memory_budget", lambda: 1000)
    with pytest.raises(probabilistic.ResourceGuardError, match="n=12"):
        classical_closure(x)
    monkeypatch.setattr(probabilistic, "_memory_budget", lambda: None)
    assert classical_closure(x).stopping_reason == "stable"


def test_memory_budget_is_half_of_physical_memory():
    budget = probabilistic._memory_budget()
    assert budget is None or budget == os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2
