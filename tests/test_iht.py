import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distiht.cbdiht import run_cbdiht
from distiht.diht import StopRule, run_diht
from distiht.graphs import gen_erdos_renyi, static_schedule
from distiht.iht import (IhtConfig, NumericFailure, hard_threshold, run_iht,
                         write_trace_csv)
from distiht.model import generate_problem, loss_info
from distiht.subgradient import SubgradConfig, orthonormal_slices, run_lockstep, run_subgradient
from oracles import (argsort_hard_threshold, descent_gap_check, is_l_stationary,
                     run_inexact_iht, spark_bruteforce)


def quadratic(problem):
    a, b = problem.stacked()
    grad = lambda x: 2.0 * (a.T @ (a @ x - b))
    loss = lambda x: float(np.linalg.norm(a @ x - b) ** 2)
    return a, b, grad, loss


class TestHardThreshold:
    def test_two_largest(self):
        np.testing.assert_array_equal(
            hard_threshold(np.array([3.0, -5.0, 1.0, 0.0]), 2),
            [3.0, -5.0, 0.0, 0.0])

    def test_identity_on_sparse_input(self):
        v = np.array([0.0, 2.0, 0.0, -1.0])
        np.testing.assert_array_equal(hard_threshold(v, 3), v)

    def test_tie_breaks_to_lowest_index(self):
        np.testing.assert_array_equal(
            hard_threshold(np.array([2.0, -2.0, 0.0]), 1), [2.0, 0.0, 0.0])

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            hard_threshold(np.zeros(3), 4)

    def test_k_zero(self):
        np.testing.assert_array_equal(hard_threshold(np.array([1.0, 2.0]), 0),
                                      np.zeros(2))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.integers(0, 3))
def test_threshold_properties(seed, dim, k):
    k = min(k, dim)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    t = hard_threshold(v, k)
    # idempotence
    np.testing.assert_array_equal(hard_threshold(t, k), t)
    # kept magnitudes dominate dropped ones
    kept = np.abs(t[t != 0])
    dropped = np.abs(v[t == 0])
    assert kept.min(initial=np.inf) >= dropped.max(initial=0.0)
    # best k-sparse approximation, by exhaustive enumeration
    best = min((np.linalg.norm(v - np.where(np.isin(np.arange(dim), c), v, 0.0))
                for c in itertools.combinations(range(dim), k)),
               default=float(np.linalg.norm(v)))
    assert np.linalg.norm(v - t) <= best + 1e-12


# ties in plenty, both zeros, both infinities, NaN and subnormals, as well
# as any double
THRESHOLD_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, np.inf, -np.inf, np.nan,
                     5e-324, -5e-324, 1e-310]),
    st.floats(width=64))


@st.composite
def vectors_and_sparsity(draw):
    v = np.array(draw(st.lists(THRESHOLD_VALUES, min_size=1, max_size=60)))
    return v, draw(st.integers(0, v.size))


@settings(max_examples=400, deadline=None)
@given(vectors_and_sparsity())
def test_selection_matches_the_stable_sort_byte_for_byte(case):
    v, k = case
    assert hard_threshold(v, k).tobytes() == argsort_hard_threshold(v, k).tobytes()


def test_selection_matches_the_stable_sort_at_n_1000():
    rng = np.random.default_rng(19)
    v = rng.integers(-4, 5, 1000).astype(float)  # heavy ties
    v[rng.choice(1000, 30, replace=False)] = np.nan
    v[rng.choice(1000, 30, replace=False)] = rng.standard_normal(30)
    v[:4] = np.inf, -np.inf, -0.0, 5e-324
    for k in range(1001):
        assert hard_threshold(v, k).tobytes() == argsort_hard_threshold(v, k).tobytes()


class TestSelectionTieAndNanOrder:
    def test_nan_sorts_after_every_number(self):
        out = hard_threshold(np.array([1.0, np.nan, 0.5]), 1)
        np.testing.assert_array_equal(out, [1.0, 0.0, 0.0])

    def test_nan_kept_when_too_few_numbers(self):
        out = hard_threshold(np.array([np.nan, 1.0]), 2)
        np.testing.assert_array_equal(out, [np.nan, 1.0])

    def test_all_ties_keep_the_lowest_indices(self):
        out = hard_threshold(np.array([-3.0, 3.0, 3.0, -3.0, 3.0]), 2)
        np.testing.assert_array_equal(out, [-3.0, 3.0, 0.0, 0.0, 0.0])


def iht_step(x, grad, l, k):
    # one IHT step as every run loop takes it: a gradient step of length
    # 1/l, then hard thresholding
    return hard_threshold(x - grad / l, k)


class TestIhtStep:
    def test_zero_iterate(self):
        g = np.array([1.0, -4.0, 2.0])
        np.testing.assert_array_equal(iht_step(np.zeros(3), g, 2.0, 1), [0.0, 2.0, 0.0])

    def test_null_gradient_fixed_point(self):
        x = np.array([0.0, 3.0, 0.0])
        np.testing.assert_array_equal(iht_step(x, np.zeros(3), 1.0, 1), x)

    def test_limit_matches_support_enumeration(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 6))
        x_star = np.zeros(6)
        x_star[2] = 1.5
        b = a @ x_star
        lam = float(np.linalg.eigvalsh(a.T @ a)[-1])
        l = 2.01 * lam
        x = np.zeros(6)
        for _ in range(4000):
            x = iht_step(x, 2.0 * (a.T @ (a @ x - b)), l, 1)
        # oracle: least squares on every singleton support
        best, best_val = None, np.inf
        for i in range(6):
            beta = float(a[:, i] @ b) / float(a[:, i] @ a[:, i])
            cand = np.zeros(6)
            cand[i] = beta
            val = float(np.linalg.norm(a @ cand - b) ** 2)
            if val < best_val:
                best, best_val = cand, val
        np.testing.assert_allclose(x, best, atol=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):  # a gradient of the wrong length fails loudly
            iht_step(np.zeros(3), np.zeros(4), 1.0, 1)


class TestRunIht:
    def test_stationary_start(self):
        prob = generate_problem(30, 15, 3, 3, seed=4, ensemble="tight-frame")
        _, _, grad, _ = quadratic(prob)
        config = IhtConfig(l=1.0, k=3, max_iters=10, tol=0, x_init=prob.x_star)
        trace = run_iht(grad, prob.x_star, config)
        for it in trace.iterates:
            np.testing.assert_allclose(it, prob.x_star, atol=1e-12)

    def test_geometric_envelope_noiseless(self):
        # near-isometric instance at unit step: error halves per iteration
        prob = generate_problem(256, 128, 8, 8, seed=1, ensemble="tight-frame")
        _, _, grad, _ = quadratic(prob)
        config = IhtConfig(l=1.0, k=8, max_iters=120, tol=0,
                           x_init=np.zeros(256))
        trace = run_iht(grad, prob.x_star, config)
        nstar = np.linalg.norm(prob.x_star)
        for k, err in enumerate(trace.errors_vs_truth):
            assert err <= 2.0 ** (-k) * nstar + 1e-9
            if err < 1e-12:
                break
        assert min(trace.errors_vs_truth) < 1e-12

    def test_noisy_error_floor(self):
        prob = generate_problem(256, 128, 8, 8, seed=2, noise_std=0.01,
                                ensemble="tight-frame")
        _, _, grad, _ = quadratic(prob)
        config = IhtConfig(l=1.0, k=8, max_iters=80, tol=0, x_init=np.zeros(256))
        trace = run_iht(grad, prob.x_star, config)
        bound = 5 * np.linalg.norm(prob.noise) + 2.0 ** (-80) * np.linalg.norm(
            prob.x_star)
        assert trace.errors_vs_truth[-1] <= bound

    def test_nonfinite_gradient_aborts_with_iteration(self):
        calls = {"n": 0}

        def bad_grad(x):
            calls["n"] += 1
            return np.full(4, np.nan) if calls["n"] > 2 else np.ones(4)

        config = IhtConfig(l=1.0, k=1, max_iters=10, tol=0, x_init=np.zeros(4))
        with pytest.raises(NumericFailure) as exc:
            run_iht(bad_grad, np.zeros(4), config)
        assert exc.value.iteration == 2

    def test_truth_stop_ends_at_the_first_error_within_tol(self):
        prob = generate_problem(40, 20, 3, 4, seed=5, ensemble="tight-frame")
        _, _, grad, _ = quadratic(prob)
        config = IhtConfig(l=1.0, k=3, max_iters=500, tol=0, x_init=np.zeros(40))
        full = run_iht(grad, prob.x_star, config)
        bound = 1e-6 * np.linalg.norm(prob.x_star)
        first = next(i for i, e in enumerate(full.errors_vs_truth) if e <= bound)
        config.tol = 1e-6
        for keep in (True, False):
            stopped = run_iht(grad, prob.x_star, config, keep_iterates=keep)
            assert stopped.converged_at == first > 0
            assert stopped.errors_vs_truth == full.errors_vs_truth[:first + 1]

    def test_tol_zero_never_stops_even_on_an_exact_start(self):
        # K = 0: the zero start is the ground truth, at error 0 from the start
        prob = generate_problem(20, 10, 0, 4, seed=1)
        _, _, grad, _ = quadratic(prob)
        for tol, converged_at, steps in ((0.0, None, 3), (1e-2, 0, 0)):
            config = IhtConfig(l=2.0, k=0, max_iters=3, tol=tol, x_init=np.zeros(20))
            trace = run_iht(grad, prob.x_star, config)
            assert trace.converged_at == converged_at
            assert len(trace.step_deltas) == steps


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", ["run_iht", "run_inexact_iht", "run_diht", "run_cbdiht",
                                   "run_subgradient", "run_lockstep"])
def test_a_nonfinite_tol_is_rejected_at_every_run_entry(entry, tol):
    prob = generate_problem(20, 10, 2, 4, seed=1)
    graph = gen_erdos_renyi(4, 0.7, 1)
    _, _, grad, _ = quadratic(prob)
    config = IhtConfig(l=2.0, k=2, max_iters=5, tol=tol, x_init=np.zeros(20))
    stop = StopRule(tol=tol, max_iters=5)
    subgrad = SubgradConfig(max_iters=5, tol=tol)
    start = {
        "run_iht": lambda: run_iht(grad, prob.x_star, config),
        "run_inexact_iht": lambda: run_inexact_iht(grad, lambda k: np.zeros(20),
                                                   prob.x_star, config),
        "run_diht": lambda: run_diht(prob, graph, stop=stop),
        "run_cbdiht": lambda: run_cbdiht(prob, static_schedule(graph), stop=stop),
        "run_subgradient": lambda: run_subgradient(prob, graph, subgrad),
        # a generator: it raises on its first next()
        "run_lockstep": lambda: next(run_lockstep(
            [(prob, static_schedule(graph), orthonormal_slices(prob))], subgrad)),
    }[entry]
    with pytest.raises(ValueError, match="^tol = .* must be finite$"):
        start()


class TestRunInexact:
    def test_zero_injector_matches_exact(self):
        prob = generate_problem(40, 20, 3, 4, seed=6)
        _, _, grad, _ = quadratic(prob)
        info = loss_info(prob)
        config = IhtConfig(l=1.005 * info.lipschitz_global, k=3, max_iters=40,
                           tol=0, x_init=np.zeros(40))
        exact = run_iht(grad, prob.x_star, config)
        inexact = run_inexact_iht(grad, lambda k: np.zeros(40), prob.x_star,
                                  config)
        for u, v in zip(exact.iterates, inexact.iterates):
            np.testing.assert_array_equal(u, v)

    def test_geometric_error_square_summable_steps(self):
        prob = generate_problem(40, 20, 3, 4, seed=7)
        _, _, grad, _ = quadratic(prob)
        info = loss_info(prob)
        rng = np.random.default_rng(8)
        eps = [0.5 ** k * rng.standard_normal(40) for k in range(300)]
        config = IhtConfig(l=1.5 * info.lipschitz_global, k=3, max_iters=300,
                           tol=0, x_init=np.zeros(40))
        trace = run_inexact_iht(grad, lambda k: eps[k], prob.x_star, config)
        deltas = np.array(trace.step_deltas)
        assert np.isfinite(deltas.sum())
        quarter = len(deltas) * 3 // 4
        assert deltas[quarter:].sum() < 0.10 * deltas.sum()
        assert deltas[-1] < 1e-20

    def test_nonfinite_error_aborts_at_its_iteration(self):
        # the NaN sits at an entry that thresholding drops, so the iterate
        # stays finite and only the gradient check can see it
        prob = generate_problem(40, 20, 3, 4, seed=1)
        _, _, grad, _ = quadratic(prob)
        eps = np.zeros(40)
        eps[5] = np.nan
        config = IhtConfig(l=1.005 * loss_info(prob).lipschitz_global, k=3, max_iters=30,
                           tol=0, x_init=np.zeros(40))
        with pytest.raises(NumericFailure, match="^non-finite gradient at iteration 0$"):
            run_inexact_iht(grad, lambda k: eps, prob.x_star, config)

    def test_limit_is_stationary_on_spark_general_instance(self):
        prob = generate_problem(20, 10, 3, 2, seed=9, ensemble="tight-frame")
        a, _, grad, _ = quadratic(prob)
        assert spark_bruteforce(a, 3).value > 3
        info = loss_info(prob)
        rng = np.random.default_rng(10)
        eps = [0.6 ** k * rng.standard_normal(20) for k in range(400)]
        config = IhtConfig(l=1.005 * info.lipschitz_global, k=3, max_iters=400,
                           tol=0, x_init=np.zeros(20))
        trace = run_inexact_iht(grad, lambda k: eps[k], prob.x_star, config)
        report = is_l_stationary(grad, trace.final, info.lipschitz_global * 1.005,
                                 3, tol=1e-8)
        assert report.ok, report.violations


class TestStationarity:
    def test_zero_vector_rule(self):
        grad = lambda x: np.array([1e-9, -1e-9, 0.0])
        assert is_l_stationary(grad, np.zeros(3), 1.0, 2, tol=1e-8).ok
        grad = lambda x: np.array([0.1, 0.0, 0.0])
        assert not is_l_stationary(grad, np.zeros(3), 1.0, 2, tol=1e-8).ok

    def test_truth_of_noiseless_system(self):
        prob = generate_problem(30, 15, 3, 3, seed=11)
        _, _, grad, _ = quadratic(prob)
        assert is_l_stationary(grad, prob.x_star, 2.0, 3, tol=1e-8).ok

    def test_nonstationary_reports_coordinates(self):
        prob = generate_problem(30, 15, 3, 3, seed=12)
        _, _, grad, _ = quadratic(prob)
        rng = np.random.default_rng(13)
        x = np.zeros(30)
        x[rng.choice(30, 3, replace=False)] = rng.standard_normal(3)
        report = is_l_stationary(grad, x, 2.0, 3, tol=1e-8)
        assert not report.ok
        assert len(report.violations) >= 1
        idx, mag, bound = report.violations[0]
        assert mag > bound

    def test_requires_sparsity(self):
        with pytest.raises(ValueError):
            is_l_stationary(lambda x: x, np.ones(4), 1.0, 2)


class TestDescentGap:
    def test_exact_run_descends(self):
        prob = generate_problem(40, 20, 3, 4, seed=14)
        _, _, grad, loss = quadratic(prob)
        info = loss_info(prob)
        l = 1.005 * info.lipschitz_global
        config = IhtConfig(l=l, k=3, max_iters=60, tol=0, x_init=np.zeros(40))
        trace = run_iht(grad, prob.x_star, config)
        f_values = [loss(x) for x in trace.iterates]
        for k in range(len(trace.step_deltas)):
            delta = trace.iterates[k] - trace.iterates[k + 1]
            assert descent_gap_check((f_values[k], f_values[k + 1]),
                                     delta, None, l, info.lipschitz_global)
            assert f_values[k + 1] <= f_values[k] + 1e-9

    def test_null_step(self):
        assert descent_gap_check((1.0, 1.0), np.zeros(3), None, 2.0, 1.0)
        assert not descent_gap_check((1.0, 1.0 + 1e-6), np.zeros(3), None, 2.0, 1.0)

    def test_inexact_run_satisfies_gap(self):
        prob = generate_problem(40, 20, 3, 4, seed=15)
        _, _, grad, loss = quadratic(prob)
        info = loss_info(prob)
        l = 1.4 * info.lipschitz_global
        rng = np.random.default_rng(16)
        eps = [0.5 ** k * rng.standard_normal(40) for k in range(120)]
        config = IhtConfig(l=l, k=3, max_iters=120, tol=0, x_init=np.zeros(40))
        trace = run_inexact_iht(grad, lambda k: eps[k], prob.x_star, config)
        f_values = [loss(x) for x in trace.iterates]
        for k in range(len(trace.step_deltas)):
            delta = trace.iterates[k] - trace.iterates[k + 1]
            assert descent_gap_check((f_values[k], f_values[k + 1]),
                                     delta, eps[k], l, info.lipschitz_global)


class TestSpark:
    def test_identity_is_bound_only(self):
        res = spark_bruteforce(np.eye(3), 3)
        assert (res.value, res.exact) == (4, False)
        assert str(res) == ">= 4"

    def test_repeated_column(self):
        a = np.array([[1.0, 2.0, 1.0], [0.0, 1.0, 0.0]])
        res = spark_bruteforce(a, 3)
        assert (res.value, res.exact) == (2, True)

    def test_gaussian_wide_matrix(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((4, 8))
        res = spark_bruteforce(a, 4)
        assert (res.value, res.exact) == (5, False)

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            spark_bruteforce(np.zeros((4, 30)), 8)


def test_trace_csv(tmp_path):
    prob = generate_problem(30, 15, 3, 3, seed=18)
    _, _, grad, _ = quadratic(prob)
    config = IhtConfig(l=2.0, k=3, max_iters=10, tol=0, x_init=np.zeros(30))
    trace = run_iht(grad, prob.x_star, config)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,err_vs_truth,eps_norm,step_delta_sq"
    assert len(lines) == len(trace.iterates) + 1


def test_trace_csv_does_not_need_the_iterates(tmp_path):
    prob = generate_problem(30, 15, 3, 3, seed=18)
    _, _, grad, _ = quadratic(prob)
    config = IhtConfig(l=2.0, k=3, max_iters=10, tol=0, x_init=np.zeros(30))
    kept = run_iht(grad, prob.x_star, config)
    dropped = run_iht(grad, prob.x_star, config, keep_iterates=False)
    assert len(kept.iterates) == 11 and len(dropped.iterates) == 1
    np.testing.assert_array_equal(dropped.final, kept.final)
    write_trace_csv(kept, str(tmp_path / "kept.csv"))
    write_trace_csv(dropped, str(tmp_path / "dropped.csv"))
    assert (tmp_path / "kept.csv").read_bytes() == (tmp_path / "dropped.csv").read_bytes()


def test_config_validation():
    with pytest.raises(ValueError):
        IhtConfig(l=0.0, k=2, x_init=np.zeros(3))
    with pytest.raises(ValueError):
        IhtConfig(l=1.0, k=2, max_iters=0, x_init=np.zeros(3))
    with pytest.raises(ValueError):
        IhtConfig(l=1.0, k=1, x_init=np.ones(3))
