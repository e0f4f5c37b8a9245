import dataclasses
import json

import numpy as np
import pytest
from oracles import rowwise_write_metrics_csv

from distiht.diht import (Metrics, StopRule, aggregate_lipschitz, convergecast_sum,
                          distributed_step_constant, run_diht,
                          write_metrics_csv)
from distiht.graphs import (Graph, bfs_spanning_tree, gen_barabasi_albert,
                            gen_erdos_renyi, gen_geometric)
from distiht.harness import ExperimentConfig, GraphSpec, run_cell
from distiht.iht import IhtConfig, run_iht
from distiht.model import generate_problem, lipschitz_of_slice, loss_info


def centralized(problem, l, iters):
    a, b = problem.stacked()
    config = IhtConfig(l=l, k=problem.k, max_iters=iters, tol=0,
                       x_init=np.zeros(problem.n))
    return run_iht(lambda x: 2.0 * (a.T @ (a @ x - b)), problem.x_star, config)


def assert_agents_hold_last_broadcast(run, k, x_init):
    # agents hold the decoded iterate of the last completed broadcast, its
    # first k nonzeros, byte for byte; the root is one threshold step ahead
    sent = run.trace.iterates[-2] if run.trace.step_deltas else x_init
    want = np.zeros(len(sent))
    support = np.flatnonzero(sent)[:k]
    want[support] = sent[support]
    assert len(run.agent_estimates) == run.tree.p
    for est in run.agent_estimates:
        assert est.tobytes() == want.tobytes()


class TestConvergecast:
    def test_singleton(self):
        tree = bfs_spanning_tree(Graph(p=1, edges=[]), root=0)
        total, delta = convergecast_sum(tree, [np.array([1.0, 2.0])])
        np.testing.assert_array_equal(total, [1.0, 2.0])
        assert (delta.values_sent, delta.messages_sent, delta.time_steps) == (0, 0, 0)

    def test_star_costs_one_step(self):
        g = Graph(p=5, edges=[(0, q) for q in range(1, 5)])
        tree = bfs_spanning_tree(g, root=0)
        vecs = [np.full(3, float(q)) for q in range(5)]
        total, delta = convergecast_sum(tree, vecs)
        np.testing.assert_allclose(total, np.full(3, 10.0))
        assert delta.time_steps == 1
        assert delta.values_sent == 4 * 3

    def test_random_tree_matches_dense_sum(self):
        g = gen_erdos_renyi(9, 0.4, seed=1)
        tree = bfs_spanning_tree(g)
        rng = np.random.default_rng(2)
        vecs = [rng.standard_normal(6) for _ in range(9)]
        total, delta = convergecast_sum(tree, vecs)
        np.testing.assert_allclose(total, np.sum(vecs, axis=0), atol=1e-12)
        assert delta.values_sent == (9 - 1) * 6
        assert delta.messages_sent == 8


class TestAggregateLipschitz:
    def test_constant_field(self):
        g = gen_erdos_renyi(10, 0.4, seed=3)
        tree = bfs_spanning_tree(g)
        total, _ = aggregate_lipschitz(tree, [1.0] * 10)
        assert total == pytest.approx(10.0)

    def test_upper_bounds_global_constant(self):
        prob = generate_problem(50, 20, 3, 5, seed=4)
        g = gen_erdos_renyi(5, 0.6, seed=5)
        tree = bfs_spanning_tree(g)
        per_agent = [lipschitz_of_slice(s) for s in prob.slices]
        total, _ = aggregate_lipschitz(tree, per_agent)
        assert total > loss_info(prob).lipschitz_global

    def test_singleton(self):
        tree = bfs_spanning_tree(Graph(p=1, edges=[]), root=0)
        total, delta = aggregate_lipschitz(tree, [3.5])
        assert total == 3.5 and delta.values_sent == 0

    def test_distributed_constant_helper(self):
        prob = generate_problem(40, 16, 3, 4, seed=6)
        g = gen_erdos_renyi(4, 0.7, seed=7)
        tree = bfs_spanning_tree(g)
        l, delta = distributed_step_constant(prob, tree)
        assert l > loss_info(prob).lipschitz_global
        assert delta.messages_sent == 2 * (4 - 1)


class TestRunDiht:
    def test_single_agent_degenerates_to_iht(self):
        prob = generate_problem(30, 10, 3, 1, seed=8)
        g = Graph(p=1, edges=[])
        run = run_diht(prob, g, stop=StopRule(tol=0, max_iters=25))
        central = centralized(prob, run.l, 25)
        # the forward product on the K sent columns rounds differently from
        # the dense one, so values agree to float64 drift, supports exactly
        assert len(run.trace.iterates) == len(central.iterates)
        scale = max(float(np.max(np.abs(v))) for v in central.iterates)
        for u, v in zip(run.trace.iterates, central.iterates):
            np.testing.assert_array_equal(np.flatnonzero(u), np.flatnonzero(v))
            np.testing.assert_allclose(u, v, rtol=1e-12, atol=1e-12 * scale)

    def test_matches_centralized_on_random_graph(self):
        prob = generate_problem(60, 30, 4, 6, seed=9)
        g = gen_erdos_renyi(6, 0.5, seed=10)
        run = run_diht(prob, g, stop=StopRule(tol=0, max_iters=50))
        central = centralized(prob, run.l, 50)
        worst = max(float(np.max(np.abs(u - v)))
                    for u, v in zip(run.trace.iterates, central.iterates))
        assert worst <= 1e-10

    def test_estimates_bit_identical(self):
        prob = generate_problem(40, 20, 3, 5, seed=11)
        g = gen_barabasi_albert(5, 2, seed=12)
        x_init = np.zeros(prob.n)
        for iters in (0, 1, 15):
            # a start equal to the ground truth stops before any broadcast
            start = dataclasses.replace(prob, x_star=x_init) if iters == 0 else prob
            stop = StopRule(tol=1e-2) if iters == 0 else StopRule(tol=0, max_iters=iters)
            run = run_diht(start, g, stop=stop)
            assert len(run.trace.step_deltas) == iters
            assert_agents_hold_last_broadcast(run, prob.k, x_init)

    def test_k_zero_still_sends_the_down_sweep(self):
        # the down sweep starts each iteration, so at K=0 it is sent with 0
        # values: P-1 messages and one tree height per iteration, on top of
        # the tree build's 2|E|-(P-1) = 5 messages
        prob = generate_problem(20, 10, 0, 4, seed=1)
        run = run_diht(prob, gen_erdos_renyi(4, 0.7, 1),
                       stop=StopRule(tol=0, max_iters=3))
        assert tuple(run.metrics.totals) == (180, 23, 180, 12)

    def test_exact_accounting(self):
        prob = generate_problem(64, 24, 4, 8, seed=13)
        for g in (gen_erdos_renyi(8, 0.5, 14), gen_barabasi_albert(8, 2, 15),
                  gen_geometric(8, 0.6, 16)):
            iters = 12
            run = run_diht(prob, g, stop=StopRule(tol=0, max_iters=iters))
            p, k, n = prob.p, prob.k, prob.n
            assert run.metrics.values_sent == iters * (p - 1) * (2 * k + n)
            assert run.metrics.messages_sent == (
                run.tree.build_messages + iters * 2 * (p - 1))
            assert run.tree.build_messages == 2 * g.num_edges - (p - 1)
            assert run.metrics.time_steps == iters * 2 * run.tree.height

    def test_broadcast_accounting_cross_check(self):
        prob = generate_problem(30, 12, 2, 6, seed=17)
        g = gen_erdos_renyi(6, 0.5, seed=18)
        iters = 7
        run = run_diht(prob, g, stop=StopRule(tol=0, max_iters=iters))
        # independent event count: walk the tree once per phase
        down_events = sum(1 for v in range(6) if run.tree.children[v])
        up_events = sum(1 for v in range(6) if run.tree.parent[v] is not None)
        expected = iters * (2 * prob.k * down_events + prob.n * up_events)
        assert run.metrics.broadcasts == expected

    def test_geometric_envelope_every_agent(self):
        prob = generate_problem(128, 64, 4, 8, seed=19, ensemble="tight-frame")
        g = gen_erdos_renyi(8, 0.5, seed=20)
        with pytest.warns(RuntimeWarning):  # l = 1 is below the stacked constant
            run = run_diht(prob, g, l=1.0, stop=StopRule(tol=0, max_iters=60))
        nstar = np.linalg.norm(prob.x_star)
        for k, err in enumerate(run.trace.errors_vs_truth):
            assert err <= 2.0 ** (-k) * nstar + 1e-9
            if err < 1e-12:
                break
        assert_agents_hold_last_broadcast(run, prob.k, np.zeros(prob.n))

    def test_stop_on_truth_tolerance(self):
        prob = generate_problem(60, 30, 3, 5, seed=22, ensemble="tight-frame")
        g = gen_erdos_renyi(5, 0.6, seed=23)
        run = run_diht(prob, g, stop=StopRule(tol=1e-2, max_iters=500))
        assert run.trace.converged_at is not None
        rel = run.trace.errors_vs_truth[-1] / np.linalg.norm(prob.x_star)
        assert rel <= 1e-2

    def test_low_l_warns(self):
        prob = generate_problem(30, 12, 2, 4, seed=24)
        g = gen_erdos_renyi(4, 0.7, seed=25)
        with pytest.warns(RuntimeWarning):
            run_diht(prob, g, l=1e-6, stop=StopRule(tol=0, max_iters=1))

    def test_graph_problem_mismatch(self):
        prob = generate_problem(30, 12, 2, 4, seed=26)
        with pytest.raises(ValueError):
            run_diht(prob, gen_erdos_renyi(5, 0.5, 27), stop=StopRule())


def test_metrics_csv(tmp_path):
    prob = generate_problem(30, 12, 2, 4, seed=28)
    g = gen_erdos_renyi(4, 0.7, seed=29)
    run = run_diht(prob, g, stop=StopRule(tol=0, max_iters=5))
    path = tmp_path / "m.csv"
    write_metrics_csv(run.metrics, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,err,values_cum,messages_cum,broadcasts_cum,time_steps_cum"
    assert len(lines) == 6
    last = lines[-1].split(",")
    assert int(last[2]) == run.metrics.values_sent


def curve_cases():
    costs = np.arange(20).reshape(5, 4)
    odd = [0.5, np.nan, np.inf, 1e-300, -0.0]
    cbdiht = run_cell(generate_problem(30, 12, 2, 4, seed=28, ensemble="tight-frame"),
                      GraphSpec("er", 0.7), 0, "cbdiht",
                      ExperimentConfig(n=30, m=12, k=2, p=4, accuracies=[1e-3],
                                       max_iters=40))
    return {
        "odd err": (Metrics.from_costs(odd, costs, extra={"flag": [True, False] * 2 + [True]}),
                    ("flag",)),
        "cbdiht": (cbdiht.metrics, cbdiht.extra_columns),
        "empty curve": (Metrics.from_costs([], np.zeros((0, 4)), extra={"s_k": []}),
                        ("s_k",)),
    }


@pytest.mark.parametrize("case", list(curve_cases()))
def test_metrics_csv_matches_the_rowwise_writer(case, tmp_path):
    metrics, extra = curve_cases()[case]
    write_metrics_csv(metrics, str(tmp_path / "got.csv"), extra_columns=extra)
    rowwise_write_metrics_csv(metrics, str(tmp_path / "want.csv"), extra_columns=extra)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestMetrics:
    COSTS = [(3, 1, 2, 1), (3, 1, 2, 1)]

    def build(self, errors=(0.5, 0.25), costs=COSTS, start=(0, 4, 0, 0)):
        return Metrics.from_costs(errors, costs, start=start,
                                  extra={"s_k": [1, 2], "eps_norm_sq": [0.1, 0.2]})

    def test_equality_compares_values(self):
        a = self.build()
        assert a == self.build(errors=np.array([0.5, 0.25]), costs=np.array(self.COSTS))
        assert a != self.build(errors=(0.5, 0.26))
        assert a != self.build(start=(0, 0, 0, 0))
        assert a != Metrics.from_costs((0.5, 0.25), self.COSTS, start=(0, 4, 0, 0))
        assert self.build(errors=(np.nan, np.nan)) == self.build(errors=(np.nan, np.nan))
        assert Metrics() == Metrics() and Metrics() != object()

    def test_rows_hold_plain_python_scalars(self):
        m = self.build()
        rows = m.per_iteration
        assert rows[1] == {"iter": 2, "err": 0.25, "values_cum": 6, "messages_cum": 6,
                           "broadcasts_cum": 4, "time_steps_cum": 2, "s_k": 2,
                           "eps_norm_sq": 0.2}
        assert all(type(v) in (int, float) for row in rows for v in row.values())
        assert json.loads(json.dumps(rows)) == rows
        assert m.totals == (6, 6, 4, 2) and all(type(v) is int for v in m.totals)
        rows[0]["iter"] = 99  # a copy: the columns stay as they were
        assert m.per_iteration[0]["iter"] == 1

    def test_counters_are_the_closed_form_of_the_period(self):
        # period 3 after a start: iteration t spends row (t - 1) % 3
        costs = np.array([(5, 1, 2, 1), (7, 2, 0, 1), (1, 1, 1, 3)])
        m = Metrics.from_costs([0.5] * 4, costs, start=(0, 9, 0, 0), iters=[2, 3, 7, 8])
        steps = [tuple(costs[(t - 1) % 3]) for t in range(1, 9)]
        want = [tuple(np.add((0, 9, 0, 0), np.sum(steps[:t], axis=0, dtype=int)))
                for t in range(9)]
        assert [tuple(m.counters(t).tolist()) for t in range(9)] == want
        assert m.counters(np.arange(9)).tolist() == [list(w) for w in want]
        assert m.columns["iter"].tolist() == [2, 3, 7, 8]
        assert m.columns["values_cum"].tolist() == [want[t][0] for t in (2, 3, 7, 8)]
        assert m.totals == want[8] and all(type(v) is int for v in m.totals)
        # no rows: nothing is spent after the start
        assert Metrics.from_costs([1.0] * 3, (), start=(1, 2, 3, 4)).totals == (1, 2, 3, 4)
