"""The per-problem IHT trajectory: DIHT on every graph of one problem and the
harness's IHT cell compute centralized IHT once and add each tree's traffic.

Every comparison is against a run on a fresh copy of the problem
(`dataclasses.replace`), which keeps no trajectory, and the runs must agree
bit for bit: the shared trajectory is the same arithmetic, done once.
"""
import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import distiht.diht
from distiht.diht import StopRule, _tree_traffic, default_step_constant, run_diht
from distiht.graphs import gen_barabasi_albert, gen_erdos_renyi, gen_geometric
from distiht.harness import ExperimentConfig, GraphSpec, run_cell, run_experiment
from distiht.iht import NumericFailure
from distiht.model import generate_problem, support_gradient


@pytest.fixture
def oracles(monkeypatch):
    """The gradient oracles built, one per trajectory computed."""
    built = []

    def spy(prob):
        built.append(support_gradient(prob))
        return built[-1]

    monkeypatch.setattr(distiht.diht, "support_gradient", spy)
    return built


def desk_problem(seed=3):
    return generate_problem(60, 30, 3, 8, seed=seed, ensemble="tight-frame")


GRAPHS = [gen_erdos_renyi(8, 0.4, 1), gen_barabasi_albert(8, 2, 1), gen_geometric(8, 0.6, 1)]


def assert_same_trace(got, want):
    assert got.converged_at == want.converged_at
    assert got.errors_vs_truth == want.errors_vs_truth
    assert got.step_deltas == want.step_deltas and got.eps_norms == want.eps_norms
    assert [x.tobytes() for x in got.iterates] == [x.tobytes() for x in want.iterates]


def assert_same_run(got, want):
    assert_same_trace(got.trace, want.trace)
    assert got.l == want.l and got.metrics == want.metrics
    assert [x.tobytes() for x in got.agent_estimates] == \
        [x.tobytes() for x in want.agent_estimates]


@pytest.mark.parametrize("keep_iterates", [True, False])
def test_diht_on_three_graphs_computes_one_trajectory(keep_iterates, oracles):
    prob, stop = desk_problem(), StopRule(tol=1e-6, max_iters=300)
    runs = [run_diht(prob, g, stop=stop, keep_iterates=keep_iterates) for g in GRAPHS]
    assert len(oracles) == 1
    steps = len(runs[0].trace.step_deltas)
    assert runs[0].trace.converged_at == steps > 0
    for g, run in zip(GRAPHS, runs):
        assert_same_run(run, run_diht(replace(prob), g, stop=stop,
                                      keep_iterates=keep_iterates))
        # each tree's own traffic on the one trajectory
        cost = np.array(_tree_traffic(run.tree, 2 * prob.k, prob.n))
        assert run.metrics.totals == tuple(steps * cost + [0, run.tree.build_messages, 0, 0])
    assert len({run.metrics.totals for run in runs}) == 3
    assert len(oracles) == 4


def test_experiment_builds_one_oracle_per_problem_and_matches_fresh_cells(oracles):
    cfg = ExperimentConfig(n=40, m=20, k=3, p=5, problem_seeds=[0, 1],
                           graphs=[GraphSpec("er", 0.5), GraphSpec("geo", 0.75)],
                           graph_seeds=[0, 1], algorithms=["iht", "diht"],
                           accuracies=[1e-2, 1e-5], max_iters=500)
    report = run_experiment(cfg)
    assert len(oracles) == len(cfg.problem_seeds)
    assert len(report.cells) == 2 * 2 * 2 * 2 * len(cfg.accuracies)
    for c in report.cells:
        fresh = generate_problem(cfg.n, cfg.m, cfg.k, cfg.p, cfg.noise_std,
                                 cfg.spectral_cap, c.problem_seed, cfg.ensemble)
        spec = next(s for s in cfg.graphs if s.label == c.graph)
        want = run_cell(fresh, spec, c.graph_seed, c.algorithm, cfg)
        hit = want.crossings.get(c.accuracy)
        assert not c.error and c.converged == (hit is not None)
        assert (c.iterations, c.values, c.messages, c.broadcasts,
                c.time_steps) == (hit or want.spent)
        label = f"{c.graph}-g{c.graph_seed}-p{c.problem_seed}-{c.algorithm}"
        assert report.curves[label] == (want.metrics, want.extra_columns)
    # problem 1 is not recovered within the budget: both stops are covered
    assert {c.converged for c in report.cells if c.problem_seed == 0} == {True}
    assert {c.converged for c in report.cells if c.problem_seed == 1} == {False}


def test_a_changed_trace_leaves_the_next_run_unchanged():
    prob, stop = desk_problem(), StopRule(tol=1e-6, max_iters=300)
    first = run_diht(prob, GRAPHS[0], stop=stop)
    want = run_diht(replace(prob), GRAPHS[0], stop=stop)
    with pytest.raises(ValueError, match="read-only"):
        first.trace.iterates[-1][0] = 1.0
    first.trace.iterates.clear()
    first.trace.errors_vs_truth.append(7.0)
    first.trace.step_deltas[0] = -1.0
    first.trace.converged_at = None
    first.agent_estimates[0][:] = 7.0
    assert_same_run(run_diht(prob, GRAPHS[0], stop=stop), want)


@pytest.mark.parametrize("change", [
    {"l": 1.5}, {"tol": 1e-3}, {"max_iters": 40}, {"keep_iterates": False}])
def test_another_key_recomputes_the_trajectory(change, oracles):
    prob = desk_problem()
    base = {"l": 1.0, "tol": 1e-6, "max_iters": 300, "keep_iterates": True}

    def run(problem, l, tol, max_iters, keep_iterates):  # l in default step constants
        return run_diht(problem, GRAPHS[1], l=l * default_step_constant(problem),
                        stop=StopRule(tol, max_iters), keep_iterates=keep_iterates)

    run(prob, **base)
    assert len(oracles) == 1
    got = run(prob, **{**base, **change})
    assert len(oracles) == 2 and got.trace.step_deltas
    assert_same_run(got, run(replace(prob), **{**base, **change}))
    run(prob, **base)  # the changed key is the one kept now
    assert len(oracles) == 4


def test_a_raising_run_keeps_nothing(oracles):
    prob = desk_problem()
    b = prob.b.copy()
    b[0] = np.nan
    bad = replace(prob, b=b)
    for _ in range(2):
        with pytest.raises(NumericFailure, match="non-finite gradient at iteration 0"):
            run_diht(bad, GRAPHS[0], stop=StopRule(tol=1e-6, max_iters=30))
    assert len(oracles) == 2 and bad._trajectory is None
    # a raising run after a kept one leaves that one in place
    stop = StopRule(tol=1e-6, max_iters=30)
    kept = run_diht(prob, GRAPHS[0], stop=stop)
    for _ in range(2):
        with pytest.raises(ValueError, match="max_iters"):
            run_diht(prob, GRAPHS[0], stop=StopRule(tol=1e-6, max_iters=0))
    assert_same_run(run_diht(prob, GRAPHS[0], stop=stop), kept)
    assert len(oracles) == 3


def test_the_kept_trajectory_holds_no_gradient_oracle(oracles):
    prob = desk_problem()
    run_diht(prob, GRAPHS[0], stop=StopRule(tol=1e-6, max_iters=300))
    assert oracles[0].columns  # the oracle cached some columns of 2 A^T A
    oracle = weakref.ref(oracles.pop())
    gc.collect()
    assert oracle() is None
