"""Tests for the exact refinement engine, held against brute-force oracles."""

from __future__ import annotations

import gc
import os
import tracemalloc
from math import isqrt

import numpy as np
import pytest

from wlclosure import classical, probabilistic
from wlclosure.classical import classical_closure, classical_step
from wlclosure.coherence import make_fixture
from wlclosure.graph import (
    InputError,
    is_discrete,
    is_same_partition,
    permute_vertices,
    rainbow_refine,
    validate,
)
from wlclosure.probabilistic import (
    draw_substitution,
    iteration_budget,
    monte_carlo_bytes,
)

from oracles import (
    brute_closure,
    brute_is_refinement,
    brute_rainbow,
    brute_step,
    fingerprint_step,
    noncommutative_product,
    partition_of,
    python_matmul,
    python_refine_by,
    python_splitmix64,
    python_stream_integers,
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
    assert brute_is_refinement(res.closure, start)


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


def _python_exact_ids(x, expected):
    """The exact step's ids in pure Python: the ranks of ``(old color,
    product)`` under the reference stream's first draw at the exact ``m``,
    refined by the ranks of ``(id, product)`` under each next draw until
    they cut ``expected``'s classes."""
    m, grid, i = isqrt(2**53 // x.n), x.cells.tolist(), 0
    ids = grid
    for _ in range(8):
        left, i = python_stream_integers(classical._SEED, 1, m + 1, x.r, i)
        right, i = python_stream_integers(classical._SEED, 1, m + 1, x.r, i)
        product = python_matmul(
            [[left[c - 1] for c in row] for row in grid],
            [[right[c - 1] for c in row] for row in grid],
        )
        ids = python_refine_by(ids, product)[1]
        if partition_of(ids) == partition_of(expected):
            return ids
    raise AssertionError("eight draws did not cut the reference's classes")


def _assert_matches_fingerprint_reference(x):
    """The step cuts the reference's classes, with the ids of
    :func:`_python_exact_ids`, and is canonical."""
    out = classical_step(x)
    refined, expected = fingerprint_step(x.cells, x.r)
    assert partition_of(out.result.cells) == partition_of(expected)
    assert out.refined == refined
    assert out.result.cells.tolist() == _python_exact_ids(x, expected)
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


def test_exact_draws_are_pinned():
    """The exact stream at n = 256 has ``m = isqrt(2**53 // 256)``.  Its
    first draw's int32 tables, entry 0 equal to 0, hold the reference
    stream's values, the left family first, and are pinned; the next draw,
    40,000 colors over several of the stream's blocks, continues the
    reference stream.  The mixer's published first outputs seeded with
    1234567 are pinned too."""
    m, rng = classical._exact_draws(256)
    assert m == 5931641
    sub = draw_substitution(8, m, rng)
    assert sub.left.dtype == sub.right.dtype == np.int32
    assert sub.left[0] == sub.right[0] == 0
    assert sub.left[1:].tolist() == [5378242, 5081155, 2113140, 1448356, 4533259, 2684528, 5842293, 2923231]
    assert sub.right[1:].tolist() == [3357941, 2479939, 1998915, 1099164, 2835737, 690425, 1644897, 924370]
    first, i = python_stream_integers(classical._SEED, 1, m + 1, 16)
    assert sub.left[1:].tolist() + sub.right[1:].tolist() == first
    many = draw_substitution(40_000, m, rng)
    values, _ = python_stream_integers(classical._SEED, 1, m + 1, 80_000, i)
    assert many.left[1:].tolist() + many.right[1:].tolist() == values
    gamma = 0x9E3779B97F4A7C15
    states = [(1234567 + k * gamma) % 2**64 for k in range(5)]
    assert [python_splitmix64(z) for z in states] == probabilistic._splitmix64(
        np.array(states, dtype=np.uint64)
    ).tolist() == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


class _ForcedDraws:
    """The exact stream, with each draw (counted from 0) that ``ones`` picks
    giving every color 1 on both sides: that draw's product is ``n`` in
    every cell, so it splits nothing."""

    def __init__(self, stream, ones):
        self.stream, self.ones, self.calls = stream, ones, 0

    def integers(self, low, high, size, dtype):
        values = self.stream.integers(low, high, size, dtype)
        self.calls += 1
        # a draw is two calls: the left family's, then the right's
        return np.ones_like(values) if self.ones((self.calls - 1) // 2) else values


def _force_draws(monkeypatch, m=None, ones=lambda draw: False):
    """Make every exact stream a :class:`_ForcedDraws`, at ``m`` if given;
    returns the list of the streams made."""
    real, streams = classical._exact_draws, []

    def draws(n):
        exact_m, stream = real(n)
        streams.append(_ForcedDraws(stream, ones))
        return m or exact_m, streams[-1]

    monkeypatch.setattr(classical, "_exact_draws", draws)
    return streams


def _constant_substitution(monkeypatch):
    """Each exact stream's first draw is all ones, so its first step leaves
    every split to further draws."""
    _force_draws(monkeypatch, ones=lambda draw: draw == 0)


def _m2_substitution(monkeypatch):
    """The exact stream reduced to ``m = 2``, where draws often hide splits."""
    _force_draws(monkeypatch, m=2)


def _spy_checks(monkeypatch):
    """Record the verdict of every row check made."""
    verdicts = []
    real = classical._rows_agree

    def spy(x, candidate):
        verdicts.append(real(x, candidate))
        return verdicts[-1]

    monkeypatch.setattr(classical, "_rows_agree", spy)
    return verdicts


@pytest.mark.parametrize("block_bytes", [1, 54, 2**20])
def test_classical_step_blocks_match_fingerprint_reference(monkeypatch, block_bytes):
    """Rows are built and compared in blocks of one row, three rows (int16
    rows of n = 9 entries) and all cells: the step still equals the
    reference, and so does its split when its first draw splits nothing."""
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
    _constant_substitution(monkeypatch)
    refined, expected = fingerprint_step(x.cells, x.r)
    out = classical_step(x)
    assert refined and out.refined
    assert partition_of(out.result.cells) == partition_of(expected)
    _assert_canonical(x, out)


@pytest.mark.parametrize("substitution", [_m2_substitution, _constant_substitution])
def test_forced_collisions_are_split_by_rows(monkeypatch, substitution):
    """Draws under which distinct fingerprints share products: the row check
    finds the collisions, further draws split their classes, and every step
    equals the reference's partition and is canonical.  Checked on a
    rainbow random input and on every step of a permuted path(40)."""
    substitution(monkeypatch)
    verdicts = _spy_checks(monkeypatch)
    x = rainbow_refine(validate(random_grid(np.random.default_rng(35), 12, 3)))
    path = permute_vertices(make_fixture("path", 40), np.random.default_rng(7).permutation(40))
    for current in (x, rainbow_refine(path)):
        verdicts.clear()
        while True:
            out = classical_step(current)
            refined, expected = fingerprint_step(current.cells, current.r)
            assert partition_of(out.result.cells) == partition_of(expected)
            assert out.refined == refined
            _assert_canonical(current, out)
            if current is x or not out.refined:
                break
            current = out.result
        assert False in verdicts
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
    paths of 40 and 30 vertices, on the exact stream and under forced
    collisions; under collisions a check fails, further draws split, and the
    run still ends.  An all-ones first draw makes each run's first step
    quiet, so every input fails a check; under ``m = 2`` only path(30) fails
    one.  The trace is the oracle's on the exact stream, which collides on
    no input, and after an all-ones first draw, whose step splits by the
    draw after it."""
    if substitution is not None:
        substitution(monkeypatch)
    verdicts = _spy_checks(monkeypatch)
    x = rainbow_refine(validate(random_grid(np.random.default_rng(35), 12, 3)))
    paths = [
        permute_vertices(make_fixture("path", n), np.random.default_rng(7).permutation(n))
        for n in (40, 30)
    ]
    failed_inputs = []
    for start in (x, *paths):
        verdicts.clear()
        res = classical_closure(start)
        partition, trace = _oracle_run(start.cells.tolist())
        assert partition_of(res.closure.cells) == partition
        assert partition == partition_of(brute_closure(start.cells.tolist()))
        assert res.iterations == len(res.trace) and res.trace[-1] == res.closure.r
        assert res.stopping_reason == ("discrete" if res.closure.r == start.n**2 else "stable")
        if substitution is not _m2_substitution:
            assert res.trace == trace
        failed_inputs.append(False in verdicts)
    expected = {None: [False] * 3, _m2_substitution: [False, False, True]}
    assert failed_inputs == expected.get(substitution, [True] * 3)


def test_las_vegas_run_confirms_its_quiet_step_with_classical_step(monkeypatch):
    """On the exact stream a permuted path(16) splits until its closure, so
    the run calls :func:`classical_step` once, on its final quiet step, with
    the closure it returns."""
    x = permute_vertices(make_fixture("path", 16), np.random.default_rng(9).permutation(16))
    seen = []
    real = classical.classical_step

    def spy(current):
        seen.append(current)
        return real(current)

    monkeypatch.setattr(classical, "classical_step", spy)
    res = classical_closure(x)
    assert partition_of(res.closure.cells) == partition_of(brute_closure(x.cells.tolist()))
    assert res.stopping_reason == "stable"
    assert len(seen) == 1
    assert seen[0].cells.tolist() == res.closure.cells.tolist()


@pytest.mark.parametrize("fixture", [("petersen",), ("cyclic", 7)])
def test_classical_step_checks_a_coherent_coloring_once_without_a_product(monkeypatch, fixture):
    x = make_fixture(*fixture)
    products = []
    monkeypatch.setattr(classical, "numeric_product", lambda *a: products.append(a))
    verdicts = _spy_checks(monkeypatch)
    out = classical_step(x)
    assert not out.refined and out.result is x
    assert products == [] and verdicts == [True]


def _reversal_orbits(n):
    """The orbit partition of a path's reversal ``v -> n - 1 - v`` on cells."""
    u, v = np.divmod(np.arange(n * n), n)
    return validate(np.minimum(u * n + v, (n - 1 - u) * n + n - 1 - v).reshape(n, n) + 1)


def test_las_vegas_check_on_a_permuted_path_1024_is_block_bounded(monkeypatch):
    """The run's one check, on the closure of a permuted path(1024) with
    n**2/2 classes and int64 rows, stays within 64 MiB traced and within
    the run's guard estimate; the closure is the orbit partition of the
    path's reversal, reached in the trace of a check after every step."""
    n = 1024
    perm = np.random.default_rng(5).permutation(n)
    x = permute_vertices(make_fixture("path", n), perm)
    peaks = []
    real = classical._rows_agree

    def traced(x, candidate):
        gc.collect()
        tracemalloc.start()
        try:
            out = real(x, candidate)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(classical, "_rows_agree", traced)
    res = classical_closure(x)
    assert res.trace == (12, 48, 192, 768, 3072, 12288, 49152, 196608, 524288, 524288)
    assert is_same_partition(res.closure, permute_vertices(_reversal_orbits(n), perm))
    assert len(peaks) == 1
    assert peaks[0] <= min(64 * 2**20, monte_carlo_bytes(n, 1) + classical.KERNEL_BYTES), (
        f"traced peak {peaks[0] / 2**20:.2f} MiB"
    )


def test_las_vegas_run_is_refused_before_a_product_or_a_check(monkeypatch):
    """Just under the run's estimate, which covers its check, the guard
    raises before any product, rank or row is made."""
    x = permute_vertices(make_fixture("path", 12), np.random.default_rng(8).permutation(12))
    made = []
    for module, name in (
        (probabilistic, "numeric_product"),
        (probabilistic, "refine_by"),
        (classical, "first_row_mismatch"),
    ):
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: made.append(name))
    estimate = monte_carlo_bytes(12, 1) + classical.KERNEL_BYTES
    monkeypatch.setattr(probabilistic, "_memory_budget", lambda: estimate - 1)
    with pytest.raises(probabilistic.ResourceGuardError, match="exact step .* at n=12"):
        classical_closure(x)
    assert made == []


def test_forced_collision_in_a_class_of_most_cells_stays_within_the_run_estimate(monkeypatch):
    """Every other draw of every exact stream is all ones, from the first,
    so a permuted path(256) alternates quiet draws of the run's stream with
    splitting ones.  Each quiet draw goes to the confirming exact step,
    whose check fails and whose fresh stream splits on its second draw; the
    first check finds a class of 64,770 of the 65,536 cells.  Under a memory
    budget of the run's own estimate the run ends, in 8 draws of its stream
    and 2 of each of 4 failed confirmations, with the orbit partition of the
    path's reversal; the last confirmation passes its check and draws
    nothing.  The traced peak stays within the estimate.  Ranking that
    class's rows to split it needed an estimated 66 MiB, which the guard
    refused."""
    n = 256
    perm = np.random.default_rng(5).permutation(n)
    x = permute_vertices(make_fixture("path", n), perm)
    estimate = monte_carlo_bytes(n, 1) + classical.KERNEL_BYTES
    monkeypatch.setattr(probabilistic, "_memory_budget", lambda: estimate)
    streams = _force_draws(monkeypatch, ones=lambda draw: draw % 2 == 0)
    gc.collect()
    tracemalloc.start()
    try:
        res = classical_closure(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert is_same_partition(res.closure, permute_vertices(_reversal_orbits(n), perm))
    assert res.stopping_reason == "stable"
    assert [stream.calls for stream in streams] == [2 * 8, 2 * 2, 2 * 2, 2 * 2, 2 * 2, 0]
    assert peak <= estimate, f"traced peak {peak / 2**20:.2f} MiB"


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
