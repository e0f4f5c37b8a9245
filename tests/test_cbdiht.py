import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from distiht.cbdiht import consensus_steps, default_l_tv, epsilon_series, run_cbdiht
from distiht.diht import StopRule
from distiht.graphs import (AssumptionViolation, Graph, TvSchedule, gen_barabasi_albert,
                            gen_erdos_renyi, gen_tv_schedule, static_schedule)
from distiht.iht import IhtConfig, NumericFailure, hard_threshold, run_iht
from distiht.model import (generate_problem, lipschitz_of_slice,
                           loss_gradient, loss_info)
from oracles import cbdiht_settings, max_consensus, max_consensus_l_tv


def complete_graph(p):
    return Graph(p=p, edges=[(i, j) for i in range(p) for j in range(i + 1, p)])


def desk_problem(seed=0):
    return generate_problem(50, 24, 4, 6, seed=seed, ensemble="tight-frame")


def recomputed_epsilon_series(run):
    """The original recompute from the record, kept as the oracle for the
    in-loop eps record: the exact stacked gradient at each kept iterate
    against p times the recorded consensus average."""
    out = []
    for k, v_hat in enumerate(run.v_hats):
        xk = run.agent1_trace.iterates[k]
        grad = np.zeros(run.problem.n)
        for sl in run.problem.slices:
            grad += loss_gradient(sl, xk)
        eps = run.problem.p * v_hat - grad
        out.append(float(eps @ eps))
    return np.array(out)


class TestConsensusSteps:
    def test_clamped_at_one(self):
        assert consensus_steps(0, np.zeros(4)) == 1

    def test_formula(self):
        x = np.array([2.0, 0.0])  # squared norm 4
        assert consensus_steps(3, x) == 4

    def test_zero_vector_large_k(self):
        assert consensus_steps(10, np.zeros(3)) == 5

    def test_negative_iteration(self):
        with pytest.raises(ValueError):
            consensus_steps(-1, np.zeros(2))


class TestRunCbdiht:
    def test_single_agent_degenerates_to_iht(self):
        prob = generate_problem(30, 10, 3, 1, seed=1)
        sched = static_schedule(Graph(p=1, edges=[]))
        run = run_cbdiht(prob, sched, stop=StopRule(tol=0, max_iters=20))
        a, b = prob.stacked()
        config = IhtConfig(l=run.l_tv, k=3, max_iters=20, tol=0,
                           x_init=np.zeros(30))
        central = run_iht(lambda x: 2.0 * (a.T @ (a @ x - b)), prob.x_star, config)
        # the forward product on the iterate's nonzeros rounds differently
        # from the dense one, so values agree to float64 drift, supports exactly
        assert len(run.agent1_trace.iterates) == len(central.iterates)
        scale = max(float(np.max(np.abs(v))) for v in central.iterates)
        for u, v in zip(run.agent1_trace.iterates, central.iterates):
            np.testing.assert_array_equal(np.flatnonzero(u), np.flatnonzero(v))
            np.testing.assert_allclose(u, v, rtol=1e-12, atol=1e-12 * scale)

    def test_each_v_hat_owns_its_memory(self):
        # a row view of the weighted product would keep its other row alive
        prob = desk_problem(3)
        sched = gen_tv_schedule(gen_erdos_renyi(6, 0.5, 4), 10, 5)
        run = run_cbdiht(prob, sched, stop=StopRule(tol=0, max_iters=10))
        assert len(run.v_hats) == 10
        for v_hat in run.v_hats:
            assert v_hat.flags.owndata and v_hat.shape == (prob.n,)

    def test_exact_average_limit_tracks_centralized(self):
        prob = desk_problem(2)
        sched = static_schedule(complete_graph(6))
        with cbdiht_settings(steps=lambda k, x: 120):
            run = run_cbdiht(prob, sched, stop=StopRule(tol=0, max_iters=30))
        eps_sq = epsilon_series(run)
        assert eps_sq.max() <= 1e-12
        # with a vanishing error the evolution is centralized IHT at p * l_tv
        a, b = prob.stacked()
        config = IhtConfig(l=6 * run.l_tv, k=4, max_iters=30, tol=0,
                           x_init=np.zeros(50))
        central = run_iht(lambda x: 2.0 * (a.T @ (a @ x - b)), prob.x_star, config)
        worst = max(float(np.max(np.abs(u - v)))
                    for u, v in zip(run.agent1_trace.iterates, central.iterates))
        assert worst <= 1e-6

    def test_update_path_identity(self):
        prob = desk_problem(3)
        g = gen_erdos_renyi(6, 0.5, 4)
        sched = gen_tv_schedule(g, 10, 5)
        run = run_cbdiht(prob, sched, stop=StopRule(tol=0, max_iters=40))
        for k, v_hat in enumerate(run.v_hats):
            xk = run.agent1_trace.iterates[k]
            lhs = hard_threshold(xk - v_hat / run.l_tv, 4)
            grad = np.sum([loss_gradient(s, xk) for s in prob.slices], axis=0)
            eps = 6 * v_hat - grad
            rhs = hard_threshold(xk - (grad + eps) / (6 * run.l_tv), 4)
            assert float(np.max(np.abs(lhs - rhs))) <= 1e-10

    def test_recovery_and_stationarity_on_desk_run(self):
        prob = desk_problem(6)
        g = gen_erdos_renyi(6, 0.5, 7)
        sched = gen_tv_schedule(g, 10, 8)
        run = run_cbdiht(prob, sched, stop=StopRule(tol=1e-5, max_iters=400))
        assert run.global_converged_at is not None
        rel = run.worst_errors[-1] / np.linalg.norm(prob.x_star)
        assert rel <= 1e-5

    def test_eps_square_summable_tail(self):
        prob = desk_problem(9)
        g = gen_erdos_renyi(6, 0.5, 10)
        sched = gen_tv_schedule(g, 10, 11)
        run = run_cbdiht(prob, sched, stop=StopRule(tol=0, max_iters=120))
        eps_sq = epsilon_series(run)
        assert np.all(np.isfinite(eps_sq))
        half = len(eps_sq) // 2
        assert eps_sq[half:].sum() < 0.25 * eps_sq.sum()

    def test_eps_series_without_kept_iterates(self):
        # the compact record keeps only the last iterate; the series must
        # still be the one recomputed from every iterate
        prob = desk_problem(9)
        sched = gen_tv_schedule(gen_erdos_renyi(6, 0.5, 10), 10, 11)
        stop = StopRule(tol=1e-5, max_iters=120)
        full = epsilon_series(run_cbdiht(prob, sched, stop=stop))
        compact = epsilon_series(run_cbdiht(prob, sched, stop=stop,
                                            keep_iterates=False))
        np.testing.assert_allclose(compact, full, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("steps", [None, lambda k, x: 1, lambda k, x: 120])
    def test_eps_record_matches_recompute(self, steps):
        prob = desk_problem(9)
        sched = gen_tv_schedule(gen_erdos_renyi(6, 0.5, 10), 10, 11)
        with cbdiht_settings(steps=steps):
            run = run_cbdiht(prob, sched, stop=StopRule(tol=0, max_iters=60))
        # eps is a difference of nearly equal terms, and near the optimum so is
        # every slice gradient 2 a^T a x - 2 a^T b: it agrees within 1e-12 of
        # their size, p ||v_hat|| + sum_q (||2 a_q^T a_q x_k|| + ||2 a_q^T b_q||)
        scales = [6 * np.linalg.norm(v_hat) + sum(
            np.linalg.norm(2 * sl.a.T @ (sl.a @ xk)) + np.linalg.norm(2 * sl.a.T @ sl.b)
            for sl in prob.slices)
            for v_hat, xk in zip(run.v_hats, run.agent1_trace.iterates)]
        drift = np.abs(np.sqrt(epsilon_series(run))
                       - np.sqrt(recomputed_epsilon_series(run)))
        assert np.all(drift <= 1e-12 * np.array(scales))

    def test_constant_s_keeps_eps_finite(self):
        prob = desk_problem(12)
        g = gen_erdos_renyi(6, 0.5, 13)
        sched = gen_tv_schedule(g, 10, 14)
        with cbdiht_settings(steps=lambda k, x: 1):
            run = run_cbdiht(prob, sched, stop=StopRule(tol=0, max_iters=50))
        assert np.all(np.isfinite(epsilon_series(run)))

    def test_instance_numbers_monotone_and_joined(self):
        prob = desk_problem(15)
        g = gen_erdos_renyi(6, 0.4, 16)
        sched = gen_tv_schedule(g, 10, 17)
        run = run_cbdiht(prob, sched, stop=StopRule(tol=0, max_iters=60))
        assert all(j >= 0 for j in run.per_agent_last_iter)
        assert max(run.per_agent_last_iter) <= 60
        assert run.initiated_counts[-1] >= 1

    def test_copy_coherence_on_static_network(self):
        prob = desk_problem(18)
        sched = static_schedule(complete_graph(6))
        run = run_cbdiht(prob, sched, stop=StopRule(tol=0, max_iters=25))
        iterate_bank = {arr.tobytes() for arr in run.agent1_trace.iterates}
        for est in run.final_estimates:
            assert est.tobytes() in iterate_bank

    def test_schedule_must_satisfy_connectivity(self):
        prob = generate_problem(20, 8, 2, 4, seed=19)
        base = Graph(p=4, edges=[(0, 1), (2, 3)])
        sched = TvSchedule(base=base, subgraphs=[[(0, 1), (2, 3)]])
        with pytest.raises(AssumptionViolation):
            run_cbdiht(prob, sched, stop=StopRule(tol=0, max_iters=2))

    def test_low_l_tv_warns(self):
        # a step constant at or below the stacked constant over p is rejected,
        # not warned of: the run it would start need not end
        prob = desk_problem(20)
        sched = static_schedule(complete_graph(6))
        with pytest.raises(Exception):
            run_cbdiht(prob, sched, l_tv=-1.0, stop=StopRule())
        floor = loss_info(prob).lipschitz_global / prob.p
        for l_tv in (1e-9, floor):
            with pytest.raises(ValueError, match="must exceed the stacked constant over p"):
                run_cbdiht(prob, sched, l_tv=l_tv, stop=StopRule(tol=0, max_iters=1))
        run = run_cbdiht(prob, sched, l_tv=np.nextafter(floor, np.inf),
                         stop=StopRule(tol=0, max_iters=1))
        assert len(run.s_schedule) == 1

    def test_start_within_tolerance_stops_at_zero_iterations(self):
        prob = dataclasses.replace(desk_problem(22), x_star=np.zeros(50))
        sched = gen_tv_schedule(gen_erdos_renyi(6, 0.6, 3), 4, seed=4)
        run = run_cbdiht(prob, sched, stop=StopRule(tol=1e-2, max_iters=50))
        assert run.global_converged_at == 0 == run.agent1_trace.converged_at
        assert run.agent1_converged_at == 0
        assert run.s_schedule == [] and run.v_hats == [] and run.worst_errors == []
        assert run.metrics.totals == (0, 0, 0, 0) and run.metrics.per_iteration == []
        assert all(np.array_equal(e, prob.x_star) for e in run.final_estimates)

    def test_tol_zero_never_stops_even_on_an_exact_start(self):
        # K = 0: the zero start is the ground truth, at error 0 from the start
        prob = generate_problem(20, 10, 0, 4, seed=1)
        sched = gen_tv_schedule(gen_erdos_renyi(4, 0.7, 1), 3, 2)
        run = run_cbdiht(prob, sched, stop=StopRule(tol=0, max_iters=3))
        assert run.global_converged_at is None is run.agent1_trace.converged_at
        assert len(run.s_schedule) == 3
        assert run.metrics.totals == (100, 10, 100, 3)
        run = run_cbdiht(prob, sched, stop=StopRule(tol=1e-2, max_iters=3))
        assert run.global_converged_at == 0 and run.s_schedule == []

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError, match="max_iters"):
            run_cbdiht(desk_problem(23), static_schedule(complete_graph(6)),
                       stop=StopRule(max_iters=0))

    def test_non_finite_consensus_average_names_the_gradient(self):
        prob = desk_problem(24)
        b = prob.b.copy()
        b[0] = np.nan  # in slice 0
        prob = dataclasses.replace(prob, b=b)
        with pytest.raises(NumericFailure, match="non-finite gradient at iteration 0"):
            run_cbdiht(prob, static_schedule(complete_graph(6)),
                       stop=StopRule(max_iters=5))

    def test_default_l_tv_satisfies_theorem_bound(self):
        prob = desk_problem(21)
        info = loss_info(prob)
        assert default_l_tv(prob) > info.lipschitz_global / prob.p

    def test_max_consensus_l_tv(self):
        for seed in range(6):
            ensemble = "gaussian" if seed % 2 else "tight-frame"
            prob = generate_problem(40, 24, 3, 2 + seed, seed=seed, ensemble=ensemble)
            largest = max(lipschitz_of_slice(s) for s in prob.slices)
            assert max_consensus_l_tv(prob) == 1.005 * largest
            assert max_consensus_l_tv(prob) >= default_l_tv(prob)


class TestValueAccounting:
    def test_initiate_and_vector_counting_two_agents(self):
        prob = generate_problem(10, 4, 2, 2, seed=22)
        sched = static_schedule(Graph(p=2, edges=[(0, 1)]))
        with cbdiht_settings(steps=lambda k, x: 3):
            run = run_cbdiht(prob, sched, stop=StopRule(tol=0, max_iters=1))
        # step 0: one INITIATE (2k values); steps 1-2: both ship n-vectors
        k, n = prob.k, prob.n
        assert run.metrics.values_sent == 2 * k + 2 * n + 2 * n
        assert run.metrics.time_steps == 3

    def test_uninitiated_hold_never_transmit(self):
        # star whose outer leaf only links up in the second subgraph
        base = Graph(p=3, edges=[(0, 1), (1, 2)])
        sched = TvSchedule(base=base, subgraphs=[[(0, 1)], [(0, 1), (1, 2)]])
        prob = generate_problem(12, 6, 2, 3, seed=23)
        with cbdiht_settings(steps=lambda k, x: 1):
            run = run_cbdiht(prob, sched, stop=StopRule(tol=0, max_iters=1))
        # only the initiate from agent 0 to agent 1 was sent in step 0
        assert run.metrics.values_sent == 2 * prob.k
        assert run.metrics.messages_sent == 1


# perfbench's paper-tv runs (problems 0 and 1, N=1000, M=200, K=3, P=50, each
# on its seed-0 schedule of 10 subgraphs of ER 0.25, 50 outer iterations): the
# counters and final errors of perfbench/reference.json, and the joined
# fraction as the benchmark reports it (2,496 joins over 50 x 50)
PAPER_TV = [
    (0, 181150174, 195095, 32751948, 664, 0.0013692458019063435),
    (1, 218017046, 232272, 38348172, 777, 0.0012032703590080108),
]


@pytest.mark.parametrize("seed, values, messages, broadcasts, time_steps, final_err",
                         PAPER_TV)
def test_paper_scale_runs_keep_their_counters(seed, values, messages, broadcasts,
                                              time_steps, final_err):
    prob = generate_problem(1000, 200, 3, 50, seed=seed, ensemble="tight-frame")
    sched = gen_tv_schedule(gen_erdos_renyi(50, 0.25, seed), 10, seed + 1000)
    run = run_cbdiht(prob, sched, stop=StopRule(tol=1e-5, max_iters=50),
                     keep_iterates=False)
    m = run.metrics
    assert (len(run.s_schedule), m.values_sent, m.messages_sent, m.broadcasts,
            m.time_steps) == (50, values, messages, broadcasts, time_steps)
    assert run.global_converged_at is None
    assert sum(run.initiated_counts) == 2496
    assert float(np.mean(run.initiated_counts)) / prob.p == 49.92 / 50
    worst = run.worst_errors[-1] / np.linalg.norm(prob.x_star)
    assert abs(worst - final_err) <= 1e-10


class TestMaxConsensus:
    def test_constant_field_unchanged(self):
        sched = static_schedule(complete_graph(4))
        vals = max_consensus(sched, [2.0] * 4, 5)
        np.testing.assert_array_equal(vals, [2.0] * 4)

    def test_complete_graph_one_step(self):
        sched = static_schedule(complete_graph(5))
        vals = max_consensus(sched, [1.0, 4.0, 2.0, 3.0, 0.0], 1)
        np.testing.assert_array_equal(vals, [4.0] * 5)

    def test_random_schedule_reaches_root(self):
        for seed in range(5):
            g = gen_erdos_renyi(6, 0.4, 30 + seed)
            sched = gen_tv_schedule(g, 8, 40 + seed)
            vals = max_consensus(sched, list(range(1, 7)),
                                 2 * sched.period * (6 - 1))
            assert vals[0] == 6.0

    def test_negative_steps(self):
        sched = static_schedule(complete_graph(3))
        with pytest.raises(ValueError):
            max_consensus(sched, [1, 2, 3], -1)


class TestRunawayStepConstant:
    """l_tv = 0.0201 is about a tenth of the stacked constant over p on this
    desk-scale time-varying input.  Run with it, the iterate diverges, each
    outer iteration is granted ceil((k + ||x_k||^2)/2) averaging steps, and
    no outer budget ends the run.  The subprocesses carry a timeout, so a
    run that is let start fails these tests instead of stalling the suite."""

    SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    CONFIG = os.path.join(os.path.dirname(SRC), "configs", "desk.ini")

    def distiht(self, *argv):
        return subprocess.run([sys.executable, "-m", "distiht", *argv], timeout=30,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": self.SRC})

    def test_run_cbdiht_raises(self):
        prob = generate_problem(100, 50, 5, 10, seed=0, ensemble="tight-frame")
        sched = gen_tv_schedule(gen_barabasi_albert(10, 3, 0), 10, 1000)
        with pytest.raises(ValueError, match="^l_tv = 0.0201 must exceed"):
            run_cbdiht(prob, sched, l_tv=0.0201, stop=StopRule(max_iters=100000))

    def test_experiment_reports_a_cell_error(self, tmp_path):
        with open(self.CONFIG) as fh:
            text = fh.read()
        for old, new in [
                ("families = ba:3, er:0.25, er:0.75, geo:0.5, geo:0.75", "families = ba:3"),
                ("seeds = 0, 1, 2", "seeds = 0"), ("seeds = 0, 1", "seeds = 0"),
                ("run = iht, diht, cbdiht, subgrad", "run = cbdiht"),
                ("l_tv = auto", "l_tv = 0.0201"),
                ("time_varying = false", "time_varying = true")]:
            assert old in text
            text = text.replace(old, new)
        (tmp_path / "exp.ini").write_text(text)
        proc = self.distiht("experiment", str(tmp_path / "exp.ini"),
                            "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        errors = proc.stderr.strip().splitlines()
        assert len(errors) == 1 and errors[0].startswith(
            "cell error: ba3 graph seed 0 problem seed 0 cbdiht: ValueError: "
            "l_tv = 0.0201 must exceed the stacked constant over p")

    def test_run_exits_2_with_one_line(self):
        proc = self.distiht("run", "cbdiht", "--n", "100", "--m", "50", "--k", "5",
                            "--p", "10", "--ensemble", "tight-frame", "--family", "ba",
                            "--param", "3", "--tv", "--l-tv", "0.0201")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("run: ValueError: l_tv = 0.0201 must exceed")
        assert len(proc.stderr.strip().splitlines()) == 1
