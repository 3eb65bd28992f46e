"""Tests for the Monte Carlo refinement engine.

Random behavior is pinned by explicit seeds throughout; statistical
assertions leave five standard deviations of slack so they are stable.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from wlclosure import classical, probabilistic
from wlclosure.classical import classical_closure, classical_step
from wlclosure.coherence import make_fixture
from wlclosure.graph import (
    ColorMatrix,
    InputError,
    id_dtype,
    is_color_isomorphism,
    is_same_partition,
    permute_vertices,
    rainbow_refine,
    validate,
)
from wlclosure.probabilistic import (
    OverflowGuardError,
    RandomSubstitution,
    RunParams,
    SplitMix64Stream,
    StoppingPolicy,
    check_coherent,
    draw_substitution,
    error_bound,
    iteration_budget,
    numeric_product,
    paired_closure,
    probabilistic_closure,
    probabilistic_step,
)

from oracles import (
    brute_is_refinement,
    python_color_counts,
    python_matmul,
    python_splitmix64,
    python_stream_integers,
    random_grid,
)

BOTH_POLICIES = pytest.mark.parametrize(
    "policy",
    [StoppingPolicy.practical(3), StoppingPolicy.theoretical(1.0)],
    ids=["practical", "theoretical"],
)


def test_draw_substitution_is_reproducible_and_ordered():
    sub = draw_substitution(3, 100, np.random.default_rng(0))
    replay = np.random.default_rng(0)
    expected_left = replay.integers(1, 101, size=3, dtype=np.int64)
    expected_right = replay.integers(1, 101, size=3, dtype=np.int64)
    # color c gets the c-th value of each draw; entry 0 is unused
    assert sub.left.dtype == sub.right.dtype == np.int32
    assert sub.left[0] == sub.right[0] == 0
    assert np.array_equal(sub.left[1:], expected_left)
    assert np.array_equal(sub.right[1:], expected_right)
    assert sub.m == 100


def test_draw_substitution_range_and_independence():
    rng = np.random.default_rng(1)
    sub = draw_substitution(100_000, 4, rng)
    values = np.concatenate([sub.left[1:], sub.right[1:]]).astype(np.int64)
    assert values.min() >= 1 and values.max() <= 4
    # uniformity within 5 sigma per value
    counts = np.bincount(values, minlength=5)[1:]
    expected = len(values) / 4
    sigma = (len(values) * 0.25 * 0.75) ** 0.5
    assert all(abs(c - expected) <= 5 * sigma for c in counts)


def test_draw_substitution_rejects_bad_arguments():
    rng = np.random.default_rng(0)
    with pytest.raises(InputError):
        draw_substitution(0, 10, rng)
    with pytest.raises(InputError):
        draw_substitution(3, 1, rng)
    with pytest.raises(OverflowGuardError):
        draw_substitution(3, 2**63, rng)
    # the tables are int32: 2**31 - 1 is the largest m they hold
    with pytest.raises(OverflowGuardError, match="int32"):
        draw_substitution(3, 2**31, rng)
    sub = draw_substitution(3, 2**31 - 1, rng)
    assert sub.m == 2**31 - 1 and min(sub.left[1:].min(), sub.right[1:].min()) >= 1


@pytest.mark.parametrize(
    "seed, r, m, left_head, right_tail, sums",
    [
        (
            7,
            40_000,
            2**32 - 1,
            [3170758588, 4169704180, 2705943172],
            [3634979588, 639538161, 4265425132],
            (85854362969609, 85658805956932),
        ),
        (11, 5, 10**6, [638814, 744546, 734190], [172779, 548471, 644587], (2731620, 2101377)),
        (3, 20_000, 3, [1, 1, 1], [1, 2, 1], (39869, 39924)),
    ],
)
def test_stream_substitution_values_are_pinned(seed, r, m, left_head, right_tail, sums):
    """The draws of three seeds, pinned from the float64 tables the draw
    filled before it filled integer ones: the first left values, the last
    right values and each family's sum, over several draw blocks at
    r = 40,000 and m = 2**32 - 1.  That m is past the int32 tables of
    :func:`draw_substitution`, so its families are drawn from the stream
    directly, in the draw's order."""
    rng = SplitMix64Stream(seed)
    if m < 2**31:
        sub = draw_substitution(r, m, rng)
        assert sub.left.dtype == sub.right.dtype == np.int32
        assert sub.left[0] == sub.right[0] == 0
        left, right = sub.left[1:], sub.right[1:]
    else:
        left, right = (rng.integers(1, m + 1, size=r, dtype=np.uint32) for _ in range(2))
    assert left[:3].tolist() == left_head
    assert right[-3:].tolist() == right_tail
    assert (int(left.sum(dtype=np.uint64)), int(right.sum(dtype=np.uint64))) == sums


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 17])
def test_stream_continues_python_splitmix64_across_draws(seed):
    """Raw value ``i`` is ``splitmix64(seed + i * gamma)``, and a second draw
    continues where the first stopped.  Over ``0..2**64 - 2`` only the raw
    value ``2**64 - 1`` is rejected, so the values are the raw ones."""
    stream = SplitMix64Stream(seed)
    first = stream.integers(0, 2**64 - 1, size=5, dtype=np.uint64)
    second = stream.integers(0, 2**64 - 1, size=3, dtype=np.uint64)
    gamma = 0x9E3779B97F4A7C15
    raw = [python_splitmix64((seed + i * gamma) % 2**64) for i in range(8)]
    assert first.dtype == np.uint64
    assert first.tolist() + second.tolist() == raw


def test_stream_substitution_draws_left_then_right():
    """Color ``c`` gets the ``c``-th value of the left draw, then of the
    right one, both from the one stream."""
    sub = draw_substitution(300, 10**6, SplitMix64Stream(9))
    left, after = python_stream_integers(9, 1, 10**6 + 1, 300)
    right, _ = python_stream_integers(9, 1, 10**6 + 1, 300, start=after)
    assert sub.left[0] == sub.right[0] == 0
    assert sub.left[1:].tolist() == left
    assert sub.right[1:].tolist() == right


def test_stream_rejection_keeps_values_exactly_uniform():
    """At ``m = 2**63 + 1`` the top ``2**64 mod m = 2**63 - 1`` raw values,
    about half of them, are rejected.  The values stay in ``1..m``, repeat
    for the same seed and equal those of a one-at-a-time Python sampler,
    through a second draw."""
    m = 2**63 + 1
    stream = SplitMix64Stream(4)
    first = stream.integers(1, m + 1, size=2000, dtype=np.uint64)
    second = stream.integers(1, m + 1, size=500, dtype=np.uint64)
    expected, used = python_stream_integers(4, 1, m + 1, 2000)
    expected_second, _ = python_stream_integers(4, 1, m + 1, 500, start=used)
    assert 1.3 * 2000 < used < 2.7 * 2000  # about two raw values per value
    assert first.tolist() == expected
    assert second.tolist() == expected_second
    assert 1 <= min(expected + expected_second) and max(expected + expected_second) <= m
    replay = SplitMix64Stream(4).integers(1, m + 1, size=2000, dtype=np.uint64)
    assert np.array_equal(replay, first)


def test_stream_reduces_a_seed_past_64_bits_mod_2_64():
    """Seeds ``s`` and ``s + k * 2**64`` give one stream; negative seeds and
    ranges past 64 bits are refused."""
    draws = [SplitMix64Stream(s).integers(1, 100, size=50) for s in (7, 2**64 + 7, 2**200 + 7)]
    assert np.array_equal(draws[0], draws[1]) and np.array_equal(draws[0], draws[2])
    assert not np.array_equal(draws[0], SplitMix64Stream(8).integers(1, 100, size=50))
    with pytest.raises(InputError):
        SplitMix64Stream(-1)
    stream = SplitMix64Stream(1)
    for low, high in ((-1, 5), (5, 5), (0, 2**64)):
        with pytest.raises(ValueError):
            stream.integers(low, high, size=3)


def test_stream_false_accept_rate_within_collision_bound():
    """One check of a non-coherent input on the stream accepts with
    frequency at most ``2/m``, five standard deviations of slack."""
    x = make_fixture("path", 4)
    trials = 3000
    for m in (4, 8, 16):
        accepts = sum(check_coherent(x, m, 1, SplitMix64Stream(seed)) for seed in range(trials))
        bound = 2 / m
        assert accepts / trials <= bound + 5 * (bound * (1 - bound) / trials) ** 0.5


def test_numeric_product_frozen_example():
    x = ColorMatrix(np.array([[2, 1], [1, 2]]), 2)
    sub_left = np.array([0, 3, 5], dtype=np.int32)
    sub_right = np.array([0, 2, 7], dtype=np.int32)
    product = numeric_product(x, RandomSubstitution(10, sub_left, sub_right))
    assert product.tolist() == [[41, 31], [31, 41]]
    assert product.dtype == np.int64


def test_numeric_product_uniform_is_constant():
    x = validate([[1] * 3] * 3)
    left, right = np.array([0, 4], dtype=np.int32), np.array([0, 9], dtype=np.int32)
    product = numeric_product(x, RandomSubstitution(10, left, right))
    assert (product == 3 * 4 * 9).all()


@pytest.mark.parametrize("seed", range(8))
def test_numeric_product_entries_stay_in_guaranteed_range(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(1, 20))
    m = int(rng.integers(2, 1000))
    x = validate(random_grid(rng, n, int(rng.integers(1, 6))))
    product = numeric_product(x, draw_substitution(x.r, m, rng))
    assert int(product.min()) >= n
    assert int(product.max()) <= n * m * m


def test_numeric_product_backends_bit_identical():
    """Matches Python integers with n * m**2 below 2**53 and above it (limb split)."""
    rng = np.random.default_rng(2)
    x = validate(random_grid(rng, 70, 4))
    for m in (1000, 2**28):
        sub = draw_substitution(x.r, m, np.random.default_rng(3))
        left = sub.left.astype(np.int64)[x.cells].tolist()
        right = sub.right.astype(np.int64)[x.cells].tolist()
        assert numeric_product(x, sub).tolist() == python_matmul(left, right)


def test_numeric_product_overflow_guard():
    x = validate(random_grid(np.random.default_rng(4), 4, 2))
    m = 2**32
    table = np.array([0, 1, 1], dtype=np.int32)
    with pytest.raises(OverflowGuardError):
        numeric_product(x, RandomSubstitution(m, table, table))


def test_numeric_product_rejects_short_substitution():
    x = validate([[1, 2], [2, 1]])
    one = np.array([0, 5], dtype=np.int32)
    with pytest.raises(InputError):
        numeric_product(x, RandomSubstitution(10, one, one))


@pytest.mark.parametrize("seed", range(20))
def test_probabilistic_step_never_splits_finer_than_classical(seed):
    rng = np.random.default_rng(1100 + seed)
    n = int(rng.integers(2, 14))
    x = rainbow_refine(validate(random_grid(rng, n, 3)))
    exact = classical_step(x).result
    sampled = probabilistic_step(x, 1000, rng).result
    assert brute_is_refinement(exact, sampled)


@pytest.mark.parametrize("fixture", [("trivial", 6), ("cyclic", 7), ("cycle5",), ("petersen",)])
def test_probabilistic_step_one_sided_on_coherent_inputs(fixture):
    x = make_fixture(*fixture)
    for seed in range(60):
        out = probabilistic_step(x, 16, np.random.default_rng(seed))
        assert not out.refined
        assert out.result.cells.tolist() == x.cells.tolist()


def test_probabilistic_step_detects_path3_with_large_m():
    x = make_fixture("path", 3)
    for seed in range(50):
        assert probabilistic_step(x, 10**6, np.random.default_rng(seed)).refined


def test_probabilistic_step_deterministic_per_seed():
    x = rainbow_refine(validate(random_grid(np.random.default_rng(5), 10, 3)))
    a = probabilistic_step(x, 10**6, np.random.default_rng(7))
    b = probabilistic_step(x, 10**6, np.random.default_rng(7))
    assert a.result.cells.tolist() == b.result.cells.tolist()


@pytest.mark.parametrize("seed", range(8))
def test_probabilistic_closure_matches_classical_partition(seed):
    rng = np.random.default_rng(1200 + seed)
    n = int(rng.integers(2, 28))
    x = validate(random_grid(rng, n, int(rng.integers(1, 5))))
    mc = probabilistic_closure(x, RunParams(10**6, StoppingPolicy.practical(3), seed))
    exact = classical_closure(x)
    assert is_same_partition(mc.closure, exact.closure)
    assert mc.stopping_reason == ("discrete" if mc.closure.r == n * n else "stable")


def test_probabilistic_closure_reproducible():
    x = validate(random_grid(np.random.default_rng(6), 12, 3))
    params = RunParams(10**6, StoppingPolicy.practical(3), 99)
    a = probabilistic_closure(x, params)
    b = probabilistic_closure(x, params)
    assert a.closure.cells.tolist() == b.closure.cells.tolist()
    assert a.trace == b.trace and a.iterations == b.iterations


def test_theoretical_policy_runs_exactly_the_budget():
    """The whole budget runs unless the coloring turns discrete first."""
    params = RunParams(10**6, StoppingPolicy.theoretical(0.5), 3)
    budget = iteration_budget(6, 0.5)
    x = make_fixture("path", 6)
    res = probabilistic_closure(x, params)
    assert res.iterations == budget == len(res.trace)
    assert res.stopping_reason == "budget_exhausted"
    assert is_same_partition(res.closure, classical_closure(x).closure)
    x = validate(random_grid(np.random.default_rng(8), 6, 2))
    res = probabilistic_closure(x, params)
    assert res.iterations == len(res.trace) < budget
    assert res.stopping_reason == "discrete"
    assert is_same_partition(res.closure, classical_closure(x).closure)


@BOTH_POLICIES
def test_discrete_exit_returns_the_closure_of_a_run_without_it(policy, monkeypatch):
    x = validate(random_grid(np.random.default_rng(15), 10, 3))
    params = RunParams(10**6, policy, 4)
    res = probabilistic_closure(x, params)
    assert res.stopping_reason == "discrete"
    assert res.closure.r == 100 and res.trace[-1] == 100
    assert res.iterations == len(res.trace) and 100 not in res.trace[:-1]
    monkeypatch.setattr(probabilistic, "is_discrete", lambda c: False)
    full = probabilistic_closure(x, params)
    assert full.stopping_reason != "discrete"
    assert full.iterations > res.iterations
    assert full.trace[: res.iterations] == res.trace
    assert full.closure.cells.tolist() == res.closure.cells.tolist()


@BOTH_POLICIES
def test_single_vertex_runs_zero_steps(policy):
    x = validate([[4]])
    res = probabilistic_closure(x, RunParams(10**6, policy, 0))
    assert (res.iterations, res.trace, res.stopping_reason) == (0, (), "discrete")
    assert res.closure.cells.tolist() == [[1]]
    run = paired_closure(x, x, RunParams(10**6, policy, 0))
    assert run.first.iterations == run.second.iterations == 0
    assert run.first.stopping_reason == "discrete"
    assert run.iteration_trace == ((1, 1, True),)
    assert run.mapping == (0,)


def test_practical_policy_counts_quiet_iterations():
    x = make_fixture("cyclic", 5)
    res = probabilistic_closure(x, RunParams(10**6, StoppingPolicy.practical(4), 11))
    assert res.iterations == 4
    assert res.trace == (x.r,) * 4
    assert res.stopping_reason == "stable"


def test_stopping_policy_and_params_validation():
    with pytest.raises(InputError):
        StoppingPolicy("bogus")
    with pytest.raises(InputError):
        StoppingPolicy.practical(0)
    with pytest.raises(InputError):
        StoppingPolicy.theoretical(0.0)
    with pytest.raises(InputError):
        RunParams(1, StoppingPolicy.practical(3), 0)
    with pytest.raises(InputError, match="seed must be >= 0"):
        RunParams(10**6, StoppingPolicy.practical(3), -1)


@pytest.mark.parametrize("constant", [float("inf"), float("-inf"), float("nan"), -1.0])
def test_growth_constant_must_be_finite_and_positive(constant):
    """NaN passes a plain ``<= 0`` test; infinity reaches ``math.ceil``."""
    with pytest.raises(InputError):
        StoppingPolicy.theoretical(constant)
    with pytest.raises(InputError):
        iteration_budget(10, constant)
    with pytest.raises(InputError):
        error_bound(10, 10**6, constant)


@pytest.mark.parametrize("grid", [[[1, 2], [3, 4]], [[1, 1], [1, 1]], [[1, 2], [2, 1]]])
def test_check_coherent_validates_m_before_its_shortcuts(grid):
    """Discrete, non-rainbow and sampled inputs alike reject ``m < 2``."""
    with pytest.raises(InputError, match="m must be >= 2"):
        check_coherent(validate(grid), 1, 3, np.random.default_rng(0))


def test_check_coherent_accepts_coherent_inputs_always():
    for name in (("trivial", 8), ("cyclic", 9), ("cycle5",), ("petersen",)):
        x = make_fixture(*name)
        for seed in range(40):
            assert check_coherent(x, 10**6, 2, np.random.default_rng(seed))


def test_check_coherent_rejects_non_rainbow_without_sampling():
    x = validate([[1, 1], [1, 1]])
    rng = np.random.default_rng(12)
    assert not check_coherent(x, 10**6, 3, rng)
    untouched = np.random.default_rng(12)
    assert rng.integers(0, 2**32) == untouched.integers(0, 2**32)


def test_check_coherent_accepts_discrete_input_without_sampling():
    x = probabilistic_closure(
        validate(random_grid(np.random.default_rng(16), 8, 3)),
        RunParams(10**6, StoppingPolicy.practical(3), 1),
    ).closure
    assert x.r == 64
    rng = np.random.default_rng(12)
    assert check_coherent(x, 10**6, 3, rng)
    untouched = np.random.default_rng(12)
    assert rng.integers(0, 2**32) == untouched.integers(0, 2**32)


def test_check_coherent_path4_mostly_rejected_even_with_tiny_m():
    x = make_fixture("path", 4)
    false_count = sum(
        not check_coherent(x, 8, 1, np.random.default_rng(seed)) for seed in range(400)
    )
    # a wrong "coherent" needs a value collision: probability <= 2/m = 1/4
    assert false_count / 400 >= 0.65


def test_check_coherent_extra_trials_shrink_false_accepts():
    x = make_fixture("path", 4)
    accepts = sum(
        check_coherent(x, 8, 3, np.random.default_rng(seed)) for seed in range(400)
    )
    # bound (2/m)**trials = 1/64; allow generous sampling slack
    assert accepts / 400 <= 0.08


def test_check_coherent_rejects_bad_trials():
    with pytest.raises(InputError):
        check_coherent(make_fixture("cycle5"), 8, 0, np.random.default_rng(0))


def test_error_bound_frozen_values():
    n = 8
    m = 8 * n**5 * 3  # 8 * n**5 * log2(n) with log2(8) == 3
    assert error_bound(n, m, 1.0) == 0.25
    assert error_bound(2, 2 * 2**4) == 1.0
    assert error_bound(1, 1000) == 0.0
    assert error_bound(3, 10**12) == min(1.0, 2 * 3**5 * np.log2(3) / 10**12)


def test_error_bound_clamps_to_one():
    assert error_bound(6, 40) == 1.0
    assert error_bound(10, 10**6, 100.0) == 1.0


def test_error_bound_rejects_bad_arguments():
    with pytest.raises(InputError):
        error_bound(0, 10)
    with pytest.raises(InputError):
        error_bound(5, 1)
    with pytest.raises(InputError):
        error_bound(5, 10, 0.0)


@pytest.mark.parametrize("seed", range(6))
def test_paired_closure_isomorphic_inputs_run_identically(seed):
    rng = np.random.default_rng(1300 + seed)
    n = int(rng.integers(2, 16))
    x = validate(random_grid(rng, n, int(rng.integers(1, 5))))
    perm = rng.permutation(n)
    y = permute_vertices(x, perm)
    run = paired_closure(x, y, RunParams(10**6, StoppingPolicy.practical(3), seed))
    for classes_x, classes_y, agree in run.iteration_trace:
        assert agree and classes_x == classes_y
    assert run.first.trace == run.second.trace
    if run.mapping is not None:
        assert is_color_isomorphism(x, y, run.mapping)


@pytest.mark.parametrize(
    "grids",
    [
        ([[1, 2], [2, 1]], [[2, 1], [1, 2]]),  # same counts, other cells
        ([[1, 2], [2, 2]], [[1, 1], [2, 2]]),  # same ids, other counts
        ([[1, 2], [3, 4]], [[1, 1], [2, 3]]),  # other color counts r
        ([[1, 1], [1, 1]], [[1, 1], [1, 1]], [[1, 1], [1, 1]]),
        ([[1, 2], [1, 2]], [[2, 1], [2, 1]], [[1, 1], [2, 2]]),  # the third disagrees
        ([[3, 1], [2, 4]],),  # one coloring agrees with itself
        ([[1, 2], [3, 4]], [[4, 3], [2, 1]]),  # discrete sides agree
    ],
)
def test_counts_agree_matches_counter_oracle(grids):
    colorings = tuple(ColorMatrix(np.array(g), int(np.max(g))) for g in grids)
    counts = [python_color_counts(g) for g in grids]
    assert probabilistic._counts_agree(colorings) == all(c == counts[0] for c in counts)


def test_paired_closure_counts_only_sides_that_are_not_discrete(monkeypatch):
    """Discrete sides agree without a count: on a random input and its
    permuted copy, ``color_counts`` runs (once per side) only at the
    rainbow-refined start, and the trace matches the counter oracle."""
    rng = np.random.default_rng(23)
    x = validate(random_grid(rng, 48, 3))
    y = permute_vertices(x, rng.permutation(48))
    counted = []
    real = probabilistic.color_counts
    monkeypatch.setattr(probabilistic, "color_counts", lambda c: counted.append(c.r) or real(c))
    run = paired_closure(x, y, RunParams(10**6, StoppingPolicy.practical(3), 4))
    start = rainbow_refine(x).r
    assert run.iteration_trace == ((start, start, True), (48 * 48, 48 * 48, True))
    assert counted == [start, start]
    for a, b in ((rainbow_refine(x), rainbow_refine(y)), (run.first.closure, run.second.closure)):
        assert python_color_counts(a.cells) == python_color_counts(b.cells)


def test_paired_closure_unpacks_as_three_tuple():
    x = make_fixture("random", 6, 3, 14)
    first, second, mapping = paired_closure(
        x, x, RunParams(10**6, StoppingPolicy.practical(2), 0)
    )
    assert first.closure.n == second.closure.n == 6
    # an asymmetric graph against itself: discrete closure, identity mapping
    assert first.closure.r == 36
    assert mapping == (0, 1, 2, 3, 4, 5)


def test_paired_closure_stops_once_both_sides_are_discrete():
    rng = np.random.default_rng(17)
    x = validate(random_grid(rng, 64, 3))
    y = permute_vertices(x, rng.permutation(64))
    run = paired_closure(x, y, RunParams(10**6, StoppingPolicy.practical(3), 6))
    assert run.iteration_trace == ((run.iteration_trace[0][0],) * 2 + (True,), (4096, 4096, True))
    assert run.first.trace == run.second.trace == (64 * 64,)
    assert run.first.stopping_reason == run.second.stopping_reason == "discrete"
    assert is_color_isomorphism(x, y, run.mapping)


def test_paired_closure_runs_on_while_one_side_is_not_discrete():
    x = validate(random_grid(np.random.default_rng(18), 6, 3))
    y = make_fixture("path", 6)
    run = paired_closure(x, y, RunParams(10**6, StoppingPolicy.practical(2), 3))
    assert run.first.closure.r == 36 and run.second.closure.r < 36
    assert run.first.stopping_reason == "stable"
    assert run.first.trace[-3:] == (36, 36, 36)


def test_paired_closure_divergence_for_cycle_vs_path():
    run = paired_closure(
        make_fixture("cycle5"),
        make_fixture("path", 5),
        RunParams(10**6, StoppingPolicy.practical(3), 2),
    )
    assert not run.iteration_trace[0][2]
    assert len(run.iteration_trace) == run.first.iterations + 1
    assert run.mapping is None


def test_paired_closure_no_mapping_when_closure_not_discrete():
    x = make_fixture("trivial", 4)
    run = paired_closure(x, x, RunParams(10**6, StoppingPolicy.practical(2), 5))
    assert run.mapping is None
    assert run.first.closure.r == 2


def test_paired_closure_rejects_size_mismatch():
    with pytest.raises(InputError):
        paired_closure(
            make_fixture("trivial", 3),
            make_fixture("trivial", 4),
            RunParams(100, StoppingPolicy.practical(2), 0),
        )


def test_paired_closure_theoretical_reason():
    x = make_fixture("cyclic", 4)
    run = paired_closure(x, x, RunParams(10**6, StoppingPolicy.theoretical(1.0), 1))
    assert run.first.stopping_reason == "budget_exhausted"
    assert run.first.iterations == iteration_budget(4, 1.0)


def test_closure_overflow_propagates():
    x = validate(random_grid(np.random.default_rng(9), 4, 2))
    with pytest.raises(OverflowGuardError):
        probabilistic_closure(x, RunParams(2**32, StoppingPolicy.practical(3), 0))


@pytest.mark.parametrize("entry", ["probabilistic_closure", "paired_closure", "check_coherent"])
def test_product_bound_is_refused_before_preprocessing_and_the_first_draw(monkeypatch, entry):
    """An ``m`` whose product bound ``n * m**2`` exceeds int64 is refused with
    the bound's int64 message before rainbow preprocessing and the first
    draw, whose int32 tables would refuse it with another message."""
    x = rainbow_refine(validate(random_grid(np.random.default_rng(9), 4, 2)))
    params = RunParams(2**32, StoppingPolicy.practical(3), 0)
    run = {
        "probabilistic_closure": lambda: probabilistic_closure(x, params),
        "paired_closure": lambda: paired_closure(x, x, params),
        "check_coherent": lambda: check_coherent(x, 2**32, 3, SplitMix64Stream(0)),
    }[entry]

    def fail(*args, **kwargs):
        raise AssertionError("ran before the product bound was checked")

    monkeypatch.setattr(probabilistic, "rainbow_refine", fail)
    monkeypatch.setattr(probabilistic, "draw_substitution", fail)
    with pytest.raises(OverflowGuardError, match="exceeds int64 max"):
        run()


def _traced_peak(run) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("paired", [False, True], ids=["single", "paired"])
def test_monte_carlo_guard_estimate_tracks_the_traced_peak(monkeypatch, paired):
    """The guard's estimate lies within [1, 2] times the traced peak of a
    run on a permuted path(256) plus its inputs: a budget of 0.9 x that
    refuses the run, one of 2 x admits it."""
    n = 256
    x = permute_vertices(make_fixture("path", n), np.random.default_rng(5).permutation(n))
    params = RunParams(10**6, StoppingPolicy.practical(3), 1)
    if paired:
        run = lambda: paired_closure(x, x, params).first.closure  # noqa: E731
    else:
        run = lambda: probabilistic_closure(x, params).closure  # noqa: E731
    expected = run()
    held = _traced_peak(run) + (2 if paired else 1) * x.cells.nbytes
    monkeypatch.setattr(probabilistic, "_memory_budget", lambda: int(0.9 * held))
    with pytest.raises(probabilistic.ResourceGuardError, match=f"at n={n}"):
        run()
    monkeypatch.setattr(probabilistic, "_memory_budget", lambda: 2 * held)
    assert run().cells.tolist() == expected.cells.tolist()


def test_paired_step_holds_one_product_at_a_time():
    """A paired step builds the second coloring's product after the first's
    is ranked and freed: its traced peak on rainbow(random(512, 3)) is a
    single step's plus the first coloring's discrete result, uint32 ids
    (19.3 against 15.3 bytes a cell; 27.3 while both products were held).
    64 KiB cover the step's small objects."""
    n = 512
    x = rainbow_refine(validate(random_grid(np.random.default_rng(3), n, 3)))

    def step_peak(colorings):
        step = probabilistic._substitution_steps(10**6, np.random.default_rng(1))
        return _traced_peak(lambda: step(colorings))

    step_peak((x,))  # one-time allocations are not the step's working set
    single, paired = step_peak((x,)), step_peak((x, x))
    discrete = n * n * np.dtype(id_dtype(n * n)).itemsize
    assert paired <= single + discrete + 2**16, f"{single / n / n:.2f} {paired / n / n:.2f} B/cell"


def _near_discrete(n):
    grid = np.arange(1, n * n + 1).reshape(n, n)
    grid[0, 2] = grid[0, 1]
    x = validate(grid)
    assert x.r == n * n - 1
    return x


def test_step_peak_near_a_discrete_coloring_is_within_the_guard():
    """At r = n**2 - 1 each int32 substitution table has one entry per
    cell.  The step frees both tables before it ranks its product, so its
    largest phases are the product (tables, product and its block
    temporaries) and the constancy check (product, per-class table and the
    uint32 next cells): the traced peak of one step stays within
    ``_STEP_CELL_BYTES`` (23.3 bytes a cell measured at n = 512; 25.0 while
    the tables were held through the rank)."""
    n = 512
    x = _near_discrete(n)
    step = lambda: probabilistic_step(x, 10**6, np.random.default_rng(1))  # noqa: E731
    step()  # one-time allocations are not the step's working set
    peak = _traced_peak(step)
    assert peak <= n * n * probabilistic._STEP_CELL_BYTES, f"{peak / n / n:.2f} B/cell"


def test_exact_step_peak_near_a_discrete_coloring_is_within_the_guard():
    """The exact twin of the test above: the product step on the exact
    stream, at ``m = isqrt(2**53 // n)``, stays within the same bound (23.3
    bytes a cell measured at n = 512; 25.0 while the tables were held
    through the rank, 31.3 with float64 tables, 40.0 when all ``2 * r``
    hashed states were also mixed at once, their shifted temporaries beside
    the tables)."""
    n = 512
    x = _near_discrete(n)
    step = lambda: probabilistic_step(x, *classical._exact_draws(n))  # noqa: E731
    step()
    peak = _traced_peak(step)
    assert peak <= n * n * probabilistic._STEP_CELL_BYTES, f"{peak / n / n:.2f} B/cell"


def test_product_gathers_from_the_substitution_tables():
    """On the largest-r step of a permuted path(512), r = n**2 / 2, the
    product holds itself, half of the right factor and its row blocks, and
    no copy of a table: at most 16 bytes a cell traced (15.0 measured; 19.3
    with a float64 copy of each table made per half, 17.0 with each block's
    products of the second half held until the next block's are made)."""
    n = 512
    path = permute_vertices(make_fixture("path", n), np.random.default_rng(5).permutation(n))
    x = probabilistic_closure(path, RunParams(10**6, StoppingPolicy.practical(3), 1)).closure
    assert x.r == n * n // 2
    sub = draw_substitution(x.r, 10**6, np.random.default_rng(2))
    peak = _traced_peak(lambda: numeric_product(x, sub))
    assert peak <= 16 * n * n, f"{peak / n / n:.2f} B/cell"


def test_product_peak_at_1024_holds_eighth_row_blocks():
    """From n = 1024 the product's row blocks are an eighth of the rows and
    its panels a quarter of ``w``: with the product and a quarter of the
    right factor, a block of a quarter of the left factor and one of a later
    panel's products take 1.25 bytes a cell, so the traced peak stays within
    12 bytes a cell (11.3 measured; 13.6 with halves, 15.1 with halves and
    blocks of a quarter of the rows)."""
    n = 1024
    x = rainbow_refine(validate(random_grid(np.random.default_rng(3), n, 3)))
    sub = draw_substitution(x.r, 10**6, np.random.default_rng(2))
    numeric_product(x, sub)  # one-time allocations are not the product's
    peak = _traced_peak(lambda: numeric_product(x, sub))
    assert peak <= 12 * n * n, f"{peak / n / n:.2f} B/cell"


def test_draw_peak_is_its_int32_tables():
    """At r = 2**18 a draw holds its two int32 tables, one family's values
    before they are copied into their table and the stream's blocks: at most
    14 bytes a color traced (13.6 measured; 25.6 with float64 tables filled
    from int64 draws)."""
    r = 2**18
    rng = SplitMix64Stream(1)
    draw_substitution(r, 10**6, rng)  # one-time allocations are not the draw's
    peak = _traced_peak(lambda: draw_substitution(r, 10**6, rng))
    assert peak <= 14 * r, f"{peak / r:.2f} B/color"


def test_monte_carlo_closure_peak_is_about_two_matrices():
    """A step holds the current cells (one byte each here), the int64
    product, a quarter of the right factor, a row block of a quarter of the
    left factor and one of a later panel's products; then it sorts its rank
    words in the product's buffer, beside their dropped low bits, and
    scatters the ranks into the next cells (uint32 once discrete): the
    traced peak of a closure at n=1024 stays within 1.75 int64 matrices
    (13.2 MiB measured; 14.6 MiB with halves of ``w``, 16.1 MiB with halves
    and row blocks of a quarter of the rows, 21.3 MiB with a whole right
    factor and a separate words array)."""
    n = 1024
    x = make_fixture("random", n, 4, 901)
    params = RunParams(10**6, StoppingPolicy.practical(3), 902)
    peak = _traced_peak(lambda: probabilistic_closure(x, params))
    assert peak <= 1.75 * 8 * n * n, f"{peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("entry", ["check_coherent", "classical_closure", "probabilistic_closure"])
def test_guards_refuse_before_the_first_pass_over_the_cells(monkeypatch, entry):
    """Over a 1 MiB budget, a permuted path(1024) is refused before the
    rainbow test or preprocessing builds its n**2 keys."""
    n = 1024
    x = permute_vertices(make_fixture("path", n), np.random.default_rng(5).permutation(n))
    run = {
        "check_coherent": lambda: check_coherent(x, 10**6, 3, np.random.default_rng(1)),
        "classical_closure": lambda: classical_closure(x),
        "probabilistic_closure": lambda: probabilistic_closure(
            x, RunParams(10**6, StoppingPolicy.practical(3), 1)
        ),
    }[entry]
    monkeypatch.setattr(probabilistic, "_memory_budget", lambda: 2**20)

    def refused():
        with pytest.raises(probabilistic.ResourceGuardError, match=f"at n={n}"):
            run()

    assert _traced_peak(refused) < 64 * 2**10


def test_monte_carlo_guard_refuses_runs_over_budget(monkeypatch):
    x = make_fixture("cyclic", 9)
    params = RunParams(10**6, StoppingPolicy.practical(3), 1)
    monkeypatch.setattr(probabilistic, "_memory_budget", lambda: 1000)
    for run in (
        lambda: probabilistic_closure(x, params),
        lambda: paired_closure(x, x, params),
        lambda: check_coherent(x, 10**6, 3, np.random.default_rng(1)),
    ):
        with pytest.raises(probabilistic.ResourceGuardError, match="Monte Carlo run .* at n=9"):
            run()
    monkeypatch.setattr(probabilistic, "_memory_budget", lambda: None)
    assert probabilistic_closure(x, params).stopping_reason == "stable"
    assert check_coherent(x, 10**6, 3, np.random.default_rng(1))


def test_monte_carlo_guard_admits_sizes_by_its_cell_bytes(monkeypatch):
    """A step budgets 24 bytes a cell: two int32 tables, the int64 product
    and the constancy check's per-class int64 table.  With three uint32 id
    arrays per coloring, a 4,014.8 MiB budget, half of an 8 GB machine's
    memory, admits n = 10,813 for one coloring and 9,365 for a pair (9,781
    and 8,670 at 32 bytes a step cell)."""
    assert probabilistic._STEP_CELL_BYTES == 24
    monkeypatch.setattr(probabilistic, "_memory_budget", lambda: 4_209_827_840)
    for colorings, largest in ((1, 10_813), (2, 9_365)):
        probabilistic._guard_monte_carlo(largest, colorings)
        with pytest.raises(probabilistic.ResourceGuardError, match=f"at n={largest + 1}"):
            probabilistic._guard_monte_carlo(largest + 1, colorings)
