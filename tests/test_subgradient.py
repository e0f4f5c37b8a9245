import numpy as np
import pytest
from scipy.optimize import linprog

from distiht.graphs import Graph, gen_erdos_renyi, gen_tv_schedule, static_schedule
from distiht.model import SensingSlice, generate_problem, loss_gradient
from distiht.subgradient import (AffineProjector, SubgradConfig, orthonormal_slices,
                                 run_lockstep, run_subgradient)


def basis_pursuit_oracle(a, b):
    """Minimum-l1 point of {x : a x = b} via the standard LP split x = u - v."""
    m, n = a.shape
    res = linprog(c=np.ones(2 * n),
                  A_eq=np.hstack([a, -a]), b_eq=b,
                  bounds=[(0, None)] * (2 * n), method="highs")
    assert res.success
    return res.x[:n] - res.x[n:]


def affine_projection(sl, x):
    # the projection run_subgradient batches: x less half the gradient of
    # the loss of the slice's orthonormal form
    return x - 0.5 * loss_gradient(AffineProjector(sl).orthonormal, x)


class TestAffineProjection:
    def test_feasible_point_fixed(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 8))
        x0 = rng.standard_normal(8)
        sl = SensingSlice(a, a @ x0)
        np.testing.assert_allclose(affine_projection(sl, x0), x0, atol=1e-12)

    def test_single_constraint_closed_form(self):
        sl = SensingSlice(np.array([[1.0, 0.0]]), np.array([1.0]))
        np.testing.assert_allclose(affine_projection(sl, np.array([0.0, 5.0])),
                                   [1.0, 5.0], atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 10))
        sl = SensingSlice(a, rng.standard_normal(4))
        x = rng.standard_normal(10)
        once = affine_projection(sl, x)
        twice = affine_projection(sl, once)
        np.testing.assert_allclose(twice, once, atol=1e-10)
        assert np.linalg.norm(sl.a @ once - sl.b) <= 1e-9

    def test_rank_deficient_named_agent(self):
        a = np.array([[1.0, 2.0], [1.0, 2.0]])  # duplicated row
        sl = SensingSlice(a, np.array([1.0, 1.0]))
        with pytest.raises(np.linalg.LinAlgError, match="agent 3"):
            AffineProjector(sl, agent=3)


class TestConfig:
    def test_exponent_domain(self):
        for bad in (0.5, 0.49, 1.01, 0.0):
            with pytest.raises(ValueError):
                SubgradConfig(step_exponent=bad)
        SubgradConfig(step_exponent=0.51)
        SubgradConfig(step_exponent=1.0)

    def test_step_size_series_conditions(self):
        # spot check: the configured exponent makes alpha^2 summable
        cfg = SubgradConfig(step_exponent=0.7)
        k = np.arange(1, 10_000)
        alpha = k ** (-cfg.step_exponent)
        assert alpha.sum() > 50  # still diverging slowly
        assert (alpha ** 2).sum() < np.pi ** 2  # comfortably summable


class TestRunSubgradient:
    def test_single_agent_matches_l1_oracle(self):
        prob = generate_problem(16, 8, 2, 1, seed=2, ensemble="tight-frame")
        g = Graph(p=1, edges=[])
        cfg = SubgradConfig(step_exponent=0.7, max_iters=150_000, tol=1e-3)
        trace, _ = run_subgradient(prob, g, cfg)
        oracle = basis_pursuit_oracle(*prob.stacked())
        got = trace.estimates[0]
        assert np.linalg.norm(got - oracle) <= 1e-2 * max(
            1.0, np.linalg.norm(oracle))

    def test_zero_instance_is_fixed_point(self):
        prob = generate_problem(12, 6, 0, 2, seed=3)  # zero signal, zero b
        g = Graph(p=2, edges=[(0, 1)])
        trace, _ = run_subgradient(prob, g, SubgradConfig(max_iters=20, tol=0.0))
        np.testing.assert_array_equal(trace.estimates, np.zeros((2, 12)))

    def test_tol_zero_never_stops_even_on_an_exact_start(self):
        # K = 0: the zero start is the ground truth, so every error is 0
        prob = generate_problem(20, 10, 0, 4, seed=1)
        g = gen_erdos_renyi(4, 0.7, 1)
        trace, metrics = run_subgradient(prob, g, SubgradConfig(max_iters=3, tol=0.0))
        assert trace.converged_at is None
        assert trace.worst_errors == [0.0, 0.0, 0.0] and metrics.time_steps == 3

    def test_feasibility_after_every_checkpoint(self):
        g = gen_erdos_renyi(5, 0.6, seed=5)
        for m, rows in ((20, [4] * 5), (22, [4, 4, 4, 5, 5])):
            prob = generate_problem(40, m, 3, 5, seed=4, ensemble="tight-frame")
            assert [sl.m_p for sl in prob.slices] == rows
            for iters in (1, 2, 7, 33, 150):
                trace, _ = run_subgradient(prob, g,
                                           SubgradConfig(max_iters=iters, tol=0.0))
                for q, sl in enumerate(prob.slices):
                    assert np.linalg.norm(sl.a @ trace.estimates[q] - sl.b) <= 1e-8

    def test_averaging_is_nonexpansive_in_max_norm(self):
        from distiht.consensus import metropolis_weights
        g = gen_erdos_renyi(7, 0.5, seed=6)
        w = metropolis_weights(g.edges, 7)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((7, 5))
        mixed = w @ x
        assert (np.linalg.norm(mixed, axis=1).max()
                <= np.linalg.norm(x, axis=1).max() + 1e-12)

    def test_values_counted_per_active_link(self):
        prob = generate_problem(20, 10, 2, 5, seed=8)
        g = gen_erdos_renyi(5, 0.6, seed=9)
        sched = gen_tv_schedule(g, 4, seed=10)
        iters = 9
        trace, metrics = run_subgradient(prob, sched,
                                         SubgradConfig(max_iters=iters, tol=0.0))
        expected = sum(2 * len(sched.edges_at(t)) * prob.n for t in range(iters))
        assert metrics.values_sent == expected
        assert metrics.time_steps == iters

    def test_crossings_recorded_exactly(self):
        prob = generate_problem(30, 16, 3, 4, seed=11, ensemble="tight-frame")
        g = gen_erdos_renyi(4, 0.9, seed=12)
        cfg = SubgradConfig(step_exponent=0.8, max_iters=60_000, tol=1e-2)
        member = (prob, static_schedule(g), orthonormal_slices(prob))
        trace, metrics = next(run_lockstep([member], cfg, accuracies=(5e-2, 1e-2)))
        crossings = trace.crossed_at
        assert trace.converged_at is not None
        assert 5e-2 in crossings and 1e-2 in crossings
        ref = np.linalg.norm(prob.x_star)
        hit = crossings[5e-2]
        assert trace.worst_errors[hit - 1] <= 5e-2 * ref
        if hit > 1:
            assert trace.worst_errors[hit - 2] > 5e-2 * ref
        assert crossings[1e-2] == trace.converged_at
