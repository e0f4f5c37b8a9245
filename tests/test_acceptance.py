"""End-to-end acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s; pytest -v
shows the per-test verdicts) and enforces its stated tolerance and runtime
budget.
"""
import time

import numpy as np
import pytest

from distiht.cbdiht import epsilon_series, run_cbdiht
from distiht.cli import cli
from distiht.consensus import (DiffusiveConsensus, bound_constants,
                               schedule_eta)
from distiht.diht import StopRule, run_diht
from distiht.graphs import (gen_barabasi_albert, gen_erdos_renyi,
                            gen_geometric, gen_tv_schedule)
from distiht.iht import (IhtConfig, descent_gap_check, is_l_stationary,
                         run_iht, run_inexact_iht, spark_bruteforce)
from distiht.model import generate_problem, loss_info
from distiht.subgradient import SubgradConfig, run_subgradient

FIVE_FAMILIES = [("ba", lambda p, s: gen_barabasi_albert(p, 3, s)),
                 ("er25", lambda p, s: gen_erdos_renyi(p, 0.25, s)),
                 ("er75", lambda p, s: gen_erdos_renyi(p, 0.75, s)),
                 ("geo50", lambda p, s: gen_geometric(p, 0.5, s)),
                 ("geo75", lambda p, s: gen_geometric(p, 0.75, s))]


def report(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def stacked_gradient(problem):
    a, b = problem.stacked()
    return lambda x: 2.0 * (a.T @ (a @ x - b))


def test_criterion_1_geometric_recovery_envelope():
    t0 = time.monotonic()
    recovered, failures = 0, []
    for seed in range(20):
        prob = generate_problem(256, 128, 8, 8, seed=seed,
                                ensemble="tight-frame")
        config = IhtConfig(l=1.0, k=8, max_iters=200, tol=0,
                           x_init=np.zeros(256))
        trace = run_iht(stacked_gradient(prob), prob.x_star, config)
        nstar = np.linalg.norm(prob.x_star)
        good = False
        for k, err in enumerate(trace.errors_vs_truth):
            if err > 2.0 ** (-k) * nstar + 1e-9:
                break
            if err < 1e-12:
                good = True
                break
        if good:
            recovered += 1
        else:
            failures.append(seed)
    elapsed = time.monotonic() - t0
    report(1, recovered >= 18 and elapsed < 5.0,
           f"{recovered}/20 seeds recovered inside the halving envelope "
           f"(failures: {failures}), {elapsed:.2f}s")


def test_criterion_2_diht_matches_centralized_on_five_families():
    t0 = time.monotonic()
    prob = generate_problem(100, 60, 5, 20, seed=0)
    a, b = prob.stacked()
    worst_gap = 0.0
    worst_coherence = 0.0
    for name, make in FIVE_FAMILIES:
        graph = make(20, 1)
        run = run_diht(prob, graph, stop=StopRule(tol=0, max_iters=100))
        config = IhtConfig(l=run.l, k=5, max_iters=100, tol=0,
                           x_init=np.zeros(100))
        central = run_iht(lambda x: 2.0 * (a.T @ (a @ x - b)), prob.x_star,
                          config)
        gap = max(float(np.max(np.abs(u - v)))
                  for u, v in zip(run.trace.iterates, central.iterates))
        worst_gap = max(worst_gap, gap)
        worst_coherence = max(worst_coherence, max(run.coherence))
    elapsed = time.monotonic() - t0
    report(2, worst_gap <= 1e-10 and worst_coherence == 0.0 and elapsed < 10.0,
           f"worst iterate gap {worst_gap:.2e}, agent coherence "
           f"{worst_coherence}, {elapsed:.2f}s")


def test_criterion_3_exact_accounting_every_topology():
    prob = generate_problem(100, 60, 5, 20, seed=0)
    iters = 10
    ok = True
    details = []
    for name, make in FIVE_FAMILIES:
        graph = make(20, 2)
        run = run_diht(prob, graph, stop=StopRule(tol=0, max_iters=iters))
        vals = run.metrics.values_sent
        msgs = run.metrics.messages_sent - run.tree.build_messages
        expected_vals = iters * (20 - 1) * (2 * 5 + 100)
        expected_msgs = iters * 2 * (20 - 1)
        tree_ok = run.tree.build_messages == 2 * graph.num_edges - 19
        ok &= vals == expected_vals and msgs == expected_msgs and tree_ok
        details.append(f"{name}:{vals}={expected_vals}")
    report(3, ok, "per-iteration values (p-1)(2k+n) and messages 2(p-1) exact "
           "on all five topologies; tree cost 2|E|-(p-1) exact")


def test_criterion_4_table_scale_value_budget():
    t0 = time.monotonic()
    prob = generate_problem(1000, 200, 3, 50, seed=0)
    graph = gen_erdos_renyi(50, 0.25, seed=0)
    run = run_diht(prob, graph, stop=StopRule(tol=1e-2, max_iters=400),
                   keep_iterates=False)
    iters = run.trace.converged_at
    per_iter = (50 - 1) * (2 * 3 + 1000)
    elapsed = time.monotonic() - t0
    ok = (iters is not None and 20 <= iters <= 150
          and run.metrics.values_sent == iters * per_iter
          and per_iter == 49_294 and elapsed < 60.0)
    report(4, ok, f"converged in {iters} iterations x {per_iter} values/iter "
           f"= {run.metrics.values_sent} values, {elapsed:.1f}s")


def test_criterion_5_deviation_bound_on_random_schedules():
    t0 = time.monotonic()
    rng = np.random.default_rng(123)
    violations = 0
    for trial in range(100):
        p = int(rng.integers(4, 9))
        graph = gen_erdos_renyi(p, 0.5, int(rng.integers(10_000)))
        schedule = gen_tv_schedule(graph, int(rng.integers(2, 11)),
                                   int(rng.integers(10_000)))
        consts = bound_constants(schedule_eta(schedule), p, schedule.period)
        v0 = rng.standard_normal((p, 3))
        target = v0.mean(axis=0)
        total = float(np.linalg.norm(v0, axis=1).sum())
        machine = DiffusiveConsensus(p, 0, v0[0], background=v0.copy())
        for s in range(1, 201):
            machine.step(schedule.edges_at(s - 1))
            dev = float(np.max(np.linalg.norm(machine.values - target, axis=1)))
            if dev > consts.big_gamma * consts.gamma ** s * total:
                violations += 1
                break
    elapsed = time.monotonic() - t0
    report(5, violations == 0 and elapsed < 30.0,
           f"0 violations target, got {violations}/100 schedules, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def desk_cbdiht_run():
    prob = generate_problem(100, 50, 5, 10, seed=0, ensemble="tight-frame")
    graph = gen_erdos_renyi(10, 0.5, seed=1)
    schedule = gen_tv_schedule(graph, 10, seed=2)
    t0 = time.monotonic()
    run = run_cbdiht(prob, schedule, stop=StopRule(tol=0, max_iters=300))
    return prob, run, time.monotonic() - t0


def test_criterion_6_update_identity_and_error_tail(desk_cbdiht_run):
    from distiht.iht import hard_threshold
    from distiht.model import loss_gradient
    prob, run, elapsed = desk_cbdiht_run
    worst = 0.0
    for k, v_hat in enumerate(run.v_hats):
        xk = run.agent1_trace.iterates[k]
        lhs = hard_threshold(xk - v_hat / run.l_tv, 5)
        grad = np.sum([loss_gradient(s, xk) for s in prob.slices], axis=0)
        eps = 10 * v_hat - grad
        rhs = hard_threshold(xk - (grad + eps) / (10 * run.l_tv), 5)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    eps_sq = epsilon_series(run)
    half = len(eps_sq) // 2
    tail_frac = eps_sq[half:].sum() / eps_sq.sum()
    ok = worst <= 1e-10 and tail_frac < 0.25 and elapsed < 120.0
    report(6, ok, f"300 outer iterations: update-path gap {worst:.2e}, "
           f"last-half error share {tail_frac:.2%}, {elapsed:.1f}s")


def test_criterion_7_recovery_and_stationarity():
    hits, stationary_ok = 0, True
    for seed in range(10):
        prob = generate_problem(100, 50, 5, 10, seed=seed,
                                ensemble="tight-frame")
        companion = generate_problem(16, 10, 5, 2, seed=seed,
                                     ensemble="tight-frame")
        bound = spark_bruteforce(companion.stacked()[0], 5)
        assert bound.value > 5  # instance family is spark-general
        graph = gen_erdos_renyi(10, 0.5, seed=100 + seed)
        schedule = gen_tv_schedule(graph, 10, seed=200 + seed)
        run = run_cbdiht(prob, schedule,
                         stop=StopRule(tol=1e-9, max_iters=900))
        final = run.agent1_trace.iterates[-1]
        rel = (np.linalg.norm(final - prob.x_star)
               / np.linalg.norm(prob.x_star))
        if rel <= 1e-5:
            hits += 1
        rep = is_l_stationary(stacked_gradient(prob), final,
                              10 * run.l_tv, 5, tol=1e-8)
        stationary_ok &= rep.ok
    report(7, hits >= 8 and stationary_ok,
           f"{hits}/10 seeds matched the truth to 1e-5; stationarity "
           f"certificate at L = p*l_tv (tol 1e-8) "
           f"{'held' if stationary_ok else 'FAILED'}")


def test_criterion_8_descent_and_step_sum_checks():
    rng = np.random.default_rng(77)
    ok = True
    for trial in range(20):
        prob = generate_problem(40, 20, 3, 4, seed=int(rng.integers(10_000)))
        a, b = prob.stacked()
        grad = lambda x: 2.0 * (a.T @ (a @ x - b))
        loss = lambda x: float(np.linalg.norm(a @ x - b) ** 2)
        l_f = loss_info(prob).lipschitz_global
        l = 1.25 * l_f
        eps = [0.6 ** k * rng.standard_normal(40) for k in range(150)]
        config = IhtConfig(l=l, k=3, max_iters=150, tol=0, x_init=np.zeros(40))
        exact = run_iht(grad, prob.x_star, config, loss_fn=loss)
        inexact = run_inexact_iht(grad, lambda k: eps[k], prob.x_star, config,
                                  loss_fn=loss)
        for tr, errs in ((exact, None), (inexact, eps)):
            for k in range(len(tr.step_deltas)):
                delta = tr.iterates[k] - tr.iterates[k + 1]
                e_k = None if errs is None else errs[k]
                ok &= descent_gap_check((tr.f_values[k], tr.f_values[k + 1]),
                                        delta, e_k, l, l_f)
            deltas = np.array(tr.step_deltas)
            ok &= bool(np.isfinite(deltas.sum()))
            quarter = 3 * len(deltas) // 4
            ok &= deltas[quarter:].sum() < 0.10 * max(deltas.sum(), 1e-300)
    report(8, ok, "descent-gap inequality held at every iteration of 20 exact "
           "and 20 geometric-error runs; step sums bounded with decaying tail")


def test_criterion_9_bandwidth_trend_vs_subgradient():
    t0 = time.monotonic()
    prob = generate_problem(100, 50, 5, 10, seed=0, ensemble="tight-frame")
    details = []
    ok = True
    for name, make in [("er75", lambda p, s: gen_erdos_renyi(p, 0.75, s)),
                       ("geo75", lambda p, s: gen_geometric(p, 0.75, s))]:
        graph = make(10, 3)
        schedule = gen_tv_schedule(graph, 10, seed=4)
        cb = run_cbdiht(prob, schedule, stop=StopRule(tol=1e-2, max_iters=500))
        sub_cfg = SubgradConfig(step_exponent=0.8, max_iters=300_000, tol=1e-2)
        sub, sub_metrics = run_subgradient(prob, schedule, sub_cfg)
        converged = (cb.global_converged_at is not None
                     and sub.converged_at is not None)
        ratio_rounds = sub_metrics.time_steps / max(cb.metrics.time_steps, 1)
        ratio_values = sub_metrics.values_sent / max(cb.metrics.values_sent, 1)
        ok &= converged and ratio_rounds >= 10.0 and ratio_values >= 10.0
        details.append(f"{name}: rounds x{ratio_rounds:.0f}, "
                       f"values x{ratio_values:.0f}")
    elapsed = time.monotonic() - t0
    report(9, ok, "; ".join(details) + f"; both baselines converged within "
           f"3e5 rounds, {elapsed:.1f}s")


def test_criterion_10_verify_is_byte_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "v1", tmp_path / "v2"
    rc1 = cli(["verify", "--out", str(d1)])
    out1 = capsys.readouterr().out
    rc2 = cli(["verify", "--out", str(d2)])
    out2 = capsys.readouterr().out
    files1 = sorted(f.name for f in d1.iterdir())
    files2 = sorted(f.name for f in d2.iterdir())
    same = files1 == files2 and all(
        (d1 / name).read_bytes() == (d2 / name).read_bytes() for name in files1)
    report(10, rc1 == 0 and rc2 == 0 and out1 == out2 and same,
           f"two verify runs wrote {len(files1)} byte-identical CSVs "
           f"and identical stdout")
