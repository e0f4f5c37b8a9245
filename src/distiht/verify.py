"""Built-in self-checks behind the `verify` CLI subcommand.

Each suite exercises one slice of the library against an independent
computation, prints one PASS/FAIL line, and optionally writes its evidence
as CSV.  Everything is seeded, so repeated runs produce byte-identical
output files.
"""
from __future__ import annotations

import os
from itertools import combinations

import numpy as np

from .cbdiht import epsilon_series, run_cbdiht
from .consensus import (bound_constants, check_doubly_stochastic,
                        metropolis_weights, run_diffusive_consensus,
                        schedule_eta)
from .diht import StopRule, run_diht
from .graphs import gen_erdos_renyi, gen_tv_schedule, validate_connectivity_window
from .iht import IhtConfig, hard_threshold, run_iht, write_csv
from .model import generate_problem, loss_gradient, loss_value
from .subgradient import SubgradConfig, run_subgradient


def _write_csv(out_dir, name, header, rows):
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, name), header, rows)


def suite_thresholding(out_dir=None):
    rng = np.random.default_rng(101)
    rows = []
    ok = True
    for case in range(50):
        dim = int(rng.integers(1, 9))
        k = int(rng.integers(0, dim + 1))
        v = np.round(rng.standard_normal(dim), 3)  # rounding provokes ties
        t = hard_threshold(v, k)
        idem = np.array_equal(hard_threshold(t, k), t)
        kept = np.abs(t[t != 0])
        dropped = np.abs(v[t == 0])
        mono = kept.min(initial=np.inf) >= dropped.max(initial=0.0)
        # exhaustive optimality among all k-sparse supports
        best = min((np.linalg.norm(v - np.where(np.isin(np.arange(dim), c),
                                                v, 0.0))
                    for c in combinations(range(dim), k)), default=0.0)
        opt = np.linalg.norm(v - t) <= best + 1e-12
        good = idem and mono and opt
        ok &= good
        rows.append((case, dim, k, int(idem), int(mono), int(opt)))
    _write_csv(out_dir, "thresholding.csv",
               ["case", "dim", "k", "idempotent", "monotone", "optimal"], rows)
    return ok, f"{len(rows)} cases"


def suite_model(out_dir=None):
    rng = np.random.default_rng(202)
    rows = []
    ok = True
    problem = generate_problem(40, 20, 4, 5, noise_std=0.1, seed=3)
    a, b = problem.stacked()
    for case in range(10):
        x = rng.standard_normal(40)
        stack_val = float(np.linalg.norm(a @ x - b) ** 2)
        sum_val = sum(loss_value(s, x) for s in problem.slices)
        v_ok = abs(stack_val - sum_val) <= 1e-10 * max(1.0, stack_val)
        g_stack = 2.0 * (a.T @ (a @ x - b))
        g_sum = np.sum([loss_gradient(s, x) for s in problem.slices], axis=0)
        g_ok = np.linalg.norm(g_stack - g_sum) <= 1e-10 * max(
            1.0, float(np.linalg.norm(g_stack)))
        ok &= v_ok and g_ok
        rows.append((case, float(abs(stack_val - sum_val)),
                     float(np.linalg.norm(g_stack - g_sum))))
    _write_csv(out_dir, "model.csv", ["case", "value_gap", "gradient_gap"], rows)
    return ok, "stack identities"


def suite_accounting(out_dir=None):
    problem = generate_problem(60, 30, 4, 6, seed=5)
    rows = []
    ok = True
    for gseed in (0, 1):
        graph = gen_erdos_renyi(6, 0.5, gseed)
        run = run_diht(problem, graph, stop=StopRule(tol=0, max_iters=20))
        iters = len(run.trace.step_deltas)
        expected_vals = iters * (problem.p - 1) * (2 * problem.k + problem.n)
        expected_msgs = run.tree.build_messages + iters * 2 * (problem.p - 1)
        v_ok = run.metrics.values_sent == expected_vals
        m_ok = run.metrics.messages_sent == expected_msgs
        t_ok = run.tree.build_messages == 2 * graph.num_edges - (problem.p - 1)
        ok &= v_ok and m_ok and t_ok
        rows.append((gseed, run.metrics.values_sent, expected_vals,
                     run.metrics.messages_sent, expected_msgs, int(t_ok)))
    _write_csv(out_dir, "accounting.csv",
               ["graph_seed", "values", "values_expected", "messages",
                "messages_expected", "tree_cost_ok"], rows)
    return ok, "exact value/message counts"


def suite_equivalence(out_dir=None):
    problem = generate_problem(60, 30, 4, 6, seed=7)
    graph = gen_erdos_renyi(6, 0.5, 2)
    run = run_diht(problem, graph, stop=StopRule(tol=0, max_iters=40))
    a, b = problem.stacked()
    config = IhtConfig(l=run.l, k=problem.k, max_iters=40, tol=0,
                       x_init=np.zeros(problem.n))
    central = run_iht(lambda x: 2.0 * (a.T @ (a @ x - b)), problem.x_star, config)
    rows = []
    worst = 0.0
    for i in range(len(run.trace.iterates)):
        d = float(np.max(np.abs(run.trace.iterates[i] - central.iterates[i])))
        worst = max(worst, d)
        rows.append((i, d))
    ok = worst <= 1e-10
    _write_csv(out_dir, "equivalence.csv", ["iter", "max_abs_diff"], rows)
    return ok, f"worst iterate gap {worst:.2e}"


def suite_consensus(out_dir=None):
    rows = []
    ok = True
    for seed in range(5):
        graph = gen_erdos_renyi(6, 0.5, 20 + seed)
        schedule = gen_tv_schedule(graph, 10, 30 + seed)
        validate_connectivity_window(schedule)
        ds_ok = check_doubly_stochastic(metropolis_weights(graph.edges, graph.p))
        rng = np.random.default_rng(40 + seed)
        v0 = rng.standard_normal((6, 3))
        target = v0.mean(axis=0)
        consts = bound_constants(schedule_eta(schedule), 6, schedule.period)
        vals, initiated = run_diffusive_consensus(schedule, v0, 120)
        dev = float(np.max(np.linalg.norm(vals - target, axis=1)))
        budget = consts.big_gamma * consts.gamma ** 120 * float(
            np.linalg.norm(v0, axis=1).sum())
        total_ok = abs(float(vals.sum() - v0.sum())) <= 1e-8
        all_in = all(t is not None for t in initiated)
        ok &= ds_ok and dev <= budget and total_ok and all_in
        rows.append((seed, int(ds_ok), dev, budget, int(all_in)))
    _write_csv(out_dir, "consensus.csv",
               ["seed", "doubly_stochastic", "deviation", "bound",
                "all_initiated"], rows)
    return ok, "weights, conservation, deviation bound"


def suite_cbdiht(out_dir=None):
    problem = generate_problem(50, 24, 4, 6, seed=11, ensemble="tight-frame")
    graph = gen_erdos_renyi(6, 0.5, 3)
    schedule = gen_tv_schedule(graph, 10, 4)
    run = run_cbdiht(problem, schedule, stop=StopRule(tol=0, max_iters=40))
    eps_sq = epsilon_series(run)
    rows = []
    worst = 0.0
    for k in range(len(run.v_hats)):
        xk = run.agent1_trace.iterates[k]
        lhs = hard_threshold(xk - run.v_hats[k] / run.l_tv, problem.k)
        grad = np.sum([loss_gradient(s, xk) for s in problem.slices], axis=0)
        eps = problem.p * run.v_hats[k] - grad
        rhs = hard_threshold(xk - (grad + eps) / (problem.p * run.l_tv), problem.k)
        d = float(np.max(np.abs(lhs - rhs)))
        worst = max(worst, d)
        rows.append((k, run.s_schedule[k], d, float(eps_sq[k])))
    ok = worst <= 1e-10 and bool(np.all(np.isfinite(eps_sq)))
    _write_csv(out_dir, "cbdiht.csv",
               ["outer", "s_k", "update_path_gap", "eps_sq"], rows)
    return ok, f"update-path identity gap {worst:.2e}"


def suite_subgrad(out_dir=None):
    problem = generate_problem(40, 20, 3, 5, seed=13, ensemble="tight-frame")
    graph = gen_erdos_renyi(5, 0.6, 6)
    trace, metrics = run_subgradient(problem, graph,
                                     SubgradConfig(max_iters=200, tol=0.0))
    rows = []
    worst = 0.0
    for q, sl in enumerate(problem.slices):
        infeas = float(np.linalg.norm(sl.a @ trace.estimates[q] - sl.b))
        worst = max(worst, infeas)
        rows.append((q, infeas))
    ok = worst <= 1e-8
    _write_csv(out_dir, "subgrad.csv", ["agent", "infeasibility"], rows)
    return ok, f"worst constraint violation {worst:.2e}"


SUITES = {
    "thresholding": suite_thresholding,
    "model": suite_model,
    "accounting": suite_accounting,
    "equivalence": suite_equivalence,
    "consensus": suite_consensus,
    "cbdiht": suite_cbdiht,
    "subgrad": suite_subgrad,
}


def run_suites(names=None, out_dir=None) -> bool:
    names = list(names) if names else list(SUITES)
    unknown = [name for name in names if name not in SUITES]
    if unknown:  # before any suite runs or writes
        raise ValueError(f"unknown suite {unknown[0]!r}; choose from "
                         f"{', '.join(sorted(SUITES))}")
    all_ok = True
    for name in names:
        ok, detail = SUITES[name](out_dir)
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return all_ok
