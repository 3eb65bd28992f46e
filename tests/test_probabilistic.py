"""Tests for the Monte Carlo refinement engine.

Random behavior is pinned by explicit seeds throughout; statistical
assertions leave five standard deviations of slack so they are stable.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from wlclosure import classical
from wlclosure.classical import classical_closure, classical_step, iteration_budget
from wlclosure.coherence import make_fixture
from wlclosure.graph import (
    ColorMatrix,
    InputError,
    is_color_isomorphism,
    is_refinement,
    is_same_partition,
    permute_vertices,
    rainbow_refine,
    validate,
)
from wlclosure.probabilistic import (
    OverflowGuardError,
    RandomSubstitution,
    RunParams,
    StoppingPolicy,
    check_coherent,
    draw_substitution,
    error_bound,
    numeric_product,
    paired_closure,
    probabilistic_closure,
    probabilistic_step,
)

from oracles import python_matmul, random_grid

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
    assert np.array_equal(sub.left, expected_left)
    assert np.array_equal(sub.right, expected_right)
    assert sub.m == 100


def test_draw_substitution_range_and_independence():
    rng = np.random.default_rng(1)
    sub = draw_substitution(100_000, 4, rng)
    values = np.concatenate([sub.left, sub.right])
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


def test_numeric_product_frozen_example():
    x = ColorMatrix(np.array([[2, 1], [1, 2]]), 2)
    sub_left = np.array([3, 5], dtype=np.int64)
    sub_right = np.array([2, 7], dtype=np.int64)
    product = numeric_product(x, RandomSubstitution(10, sub_left, sub_right))
    assert product.tolist() == [[41, 31], [31, 41]]
    assert product.dtype == np.int64


def test_numeric_product_uniform_is_constant():
    x = validate([[1] * 3] * 3)
    product = numeric_product(
        x, RandomSubstitution(10, np.array([4], dtype=np.int64), np.array([9], dtype=np.int64))
    )
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
        left = sub.left[x.cells - 1].tolist()
        right = sub.right[x.cells - 1].tolist()
        assert numeric_product(x, sub).tolist() == python_matmul(left, right)


def test_numeric_product_overflow_guard():
    x = validate(random_grid(np.random.default_rng(4), 4, 2))
    m = 2**32
    table = np.array([1, 1], dtype=np.int64)
    with pytest.raises(OverflowGuardError):
        numeric_product(x, RandomSubstitution(m, table, table))


def test_numeric_product_rejects_short_substitution():
    x = validate([[1, 2], [2, 1]])
    one = np.array([5], dtype=np.int64)
    with pytest.raises(InputError):
        numeric_product(x, RandomSubstitution(10, one, one))


@pytest.mark.parametrize("seed", range(20))
def test_probabilistic_step_never_splits_finer_than_classical(seed):
    rng = np.random.default_rng(1100 + seed)
    n = int(rng.integers(2, 14))
    x = rainbow_refine(validate(random_grid(rng, n, 3)))
    exact = classical_step(x).result
    sampled = probabilistic_step(x, 1000, rng).result
    assert is_refinement(exact, sampled)


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
    monkeypatch.setattr(classical, "is_discrete", lambda c: False)
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
    monkeypatch.setattr(classical, "_memory_budget", lambda: int(0.9 * held))
    with pytest.raises(classical.ResourceGuardError, match=f"at n={n}"):
        run()
    monkeypatch.setattr(classical, "_memory_budget", lambda: 2 * held)
    assert run().cells.tolist() == expected.cells.tolist()


def test_monte_carlo_guard_refuses_runs_over_budget(monkeypatch):
    x = make_fixture("cyclic", 9)
    params = RunParams(10**6, StoppingPolicy.practical(3), 1)
    monkeypatch.setattr(classical, "_memory_budget", lambda: 1000)
    for run in (
        lambda: probabilistic_closure(x, params),
        lambda: paired_closure(x, x, params),
        lambda: check_coherent(x, 10**6, 3, np.random.default_rng(1)),
    ):
        with pytest.raises(classical.ResourceGuardError, match="Monte Carlo run .* at n=9"):
            run()
    monkeypatch.setattr(classical, "_memory_budget", lambda: None)
    assert probabilistic_closure(x, params).stopping_reason == "stable"
    assert check_coherent(x, 10**6, 3, np.random.default_rng(1))
