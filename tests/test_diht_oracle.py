"""Differential oracles for run_diht: the original loop, kept verbatim, the
dense gradient path that the K-column one replaced, and the K-column path
that the cached Gram columns replaced.

The library runs DIHT on centralized IHT's loop with a tree-summed gradient
oracle and fills the counters from their closed form.  The tree sum of
the agents' gradients at the K pairs the down sweep sends is taken as
2 (A^T A)[:, S] x_S - 2 A^T b (model.support_gradient), each column of
2 A^T A built the first time its index is sent, so no iteration reads all
of A and no (p, n) block of agent gradients is formed.  This file keeps
the loop that had its own copy of the stop rule, record-keeping and
counting, the post-order tree sum, the list-based tree sum that the
in-place `_tree_sum` replaced (that one still serves convergecast_sum and
the tests' aggregate_lipschitz), the shared-loop run that decoded the sent pairs
into one (p, n) row per agent, took the dense batched gradients at the
rows (test_model.batched_gradients) and summed them up the tree, and the
run that took the sum as one product 2 A^T (A_S x_S - b) over the stacked
rows, its forward product on the K columns sent.

Every reference path rounds differently from the cached columns, so the
iterates, errors, step sizes and estimates agree to float64 drift (1e-12
of each series' largest magnitude) rather than bit for bit.  The step
constant, the stop index, every counter and, against the dense and the
K-column paths, every iterate's support agree exactly, and the tree sums
agree bit for bit.  Every agent's copy is, byte for byte, the decode of
the last iterate broadcast.
"""
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from test_diht import assert_agents_hold_last_broadcast
from test_model import batched_gradients

from distiht import diht
from distiht.diht import (DihtRun, Metrics as RunMetrics, StopRule, _tree_sum,
                          default_step_constant, run_diht)
from distiht.graphs import (Graph, SpanningTree, bfs_spanning_tree,
                            gen_barabasi_albert, gen_erdos_renyi, gen_geometric)
from distiht.iht import IhtConfig, IhtTrace, NumericFailure, hard_threshold, run_iht
from distiht.model import Problem, generate_problem, loss_gradient, loss_info, padded_slices


@dataclass
class Metrics:
    """Cumulative traffic and time accounting for one simulated run."""

    values_sent: int = 0
    messages_sent: int = 0
    broadcasts: int = 0
    time_steps: int = 0
    per_iteration: list = field(default_factory=list)  # cumulative snapshots

    def snapshot(self, iteration: int, err: float, extra: Optional[dict] = None):
        row = {"iter": iteration, "err": err, "values_cum": self.values_sent,
               "messages_cum": self.messages_sent, "broadcasts_cum": self.broadcasts,
               "time_steps_cum": self.time_steps}
        if extra:
            row.update(extra)
        self.per_iteration.append(row)


def _subtree_order(tree: SpanningTree) -> list:
    """Vertices in post-order (children before parents)."""
    order = []
    stack = [(tree.root, False)]
    while stack:
        v, done = stack.pop()
        if done:
            order.append(v)
        else:
            stack.append((v, True))
            for c in reversed(tree.children[v]):
                stack.append((c, False))
    return order


def reference_tree_sum(tree: SpanningTree, vectors) -> np.ndarray:
    """Leaf-to-root aggregation: each vertex adds its children's partial sums."""
    partial = [None] * tree.p
    for v in _subtree_order(tree):
        acc = np.array(vectors[v], dtype=float)
        for c in tree.children[v]:
            acc += partial[c]
        partial[v] = acc
    return partial[tree.root]


def list_tree_sum(tree: SpanningTree, vectors) -> np.ndarray:
    """Leaf-to-root aggregation: each vertex adds its children's partial sums."""
    partial = [None] * tree.p
    for v in sorted(range(tree.p), key=tree.depth.__getitem__, reverse=True):
        acc = np.array(vectors[v], dtype=float)
        for c in tree.children[v]:
            acc += partial[c]
        partial[v] = acc
    return partial[tree.root]


@dataclass
class ReferenceDihtRun:
    tree: SpanningTree
    agent_estimates: list
    sums: Optional[list]
    metrics: Metrics
    trace: IhtTrace
    l: float


def reference_run_diht(problem: Problem, graph: Graph, l: Optional[float] = None,
                       k_sparsity: Optional[int] = None, stop: Optional[StopRule] = None,
                       x_init: Optional[np.ndarray] = None, record_sums: bool = False,
                       keep_iterates: bool = True) -> ReferenceDihtRun:
    """Simulate distributed IHT rooted at agent 0 on a static graph.

    With l unset, the step constant defaults to 1.005 times the stacked
    gradient smoothness constant, mirroring the usual practice of running
    just above the tightest known bound.  A user-supplied l at or below the
    stacked constant is accepted with a warning since descent is then not
    guaranteed.
    """
    if graph.p != problem.p:
        raise ValueError("graph and problem disagree on the agent count")
    if not graph.is_connected():
        raise ValueError("graph must be connected")
    k = problem.k if k_sparsity is None else k_sparsity
    stop = stop or StopRule()
    info = None
    if l is None:
        info = loss_info(problem)
        l = 1.005 * info.lipschitz_global
    elif l <= 0:
        raise ValueError("l must be positive")
    else:
        info = loss_info(problem)
        if l <= info.lipschitz_global:
            warnings.warn("l below the stacked Lipschitz constant: descent is "
                          "not guaranteed", RuntimeWarning)

    tree = bfs_spanning_tree(graph, root=0)
    metrics = Metrics()
    metrics.messages_sent += tree.build_messages  # construction, control only

    n = problem.n
    x = np.zeros(n) if x_init is None else np.asarray(x_init, dtype=float).copy()
    if np.count_nonzero(x) > k:
        raise ValueError("x_init is not k-sparse")
    reference = problem.x_star
    ref_norm = float(np.linalg.norm(reference))

    trace = IhtTrace()
    trace.iterates.append(x.copy())
    trace.errors_vs_truth.append(float(np.linalg.norm(x - reference)))
    sums = [] if record_sums else None
    agent_estimates = [x.copy() for _ in range(problem.p)]

    nonleaf = sum(1 for v in range(tree.p) if tree.children[v])
    down_values = (problem.p - 1) * 2 * k
    up_values = (problem.p - 1) * n
    iter_time = 2 * tree.height

    for it in range(stop.max_iters):
        # broadcast phase: every agent adopts the root iterate, then
        # evaluates its share of the gradient
        for p in range(problem.p):
            agent_estimates[p] = x.copy()
        z = [loss_gradient(problem.slices[p], agent_estimates[p])
             for p in range(problem.p)]
        # convergecast phase: child partial sums accumulate toward the root
        total = reference_tree_sum(tree, z)
        if not np.all(np.isfinite(total)):
            raise NumericFailure(it, "gradient sum")
        if record_sums:
            sums.append(total)
        x_next = hard_threshold(x - total / l, k)

        metrics.values_sent += down_values + up_values
        metrics.messages_sent += 2 * (problem.p - 1)
        metrics.broadcasts += 2 * k * nonleaf + up_values
        metrics.time_steps += iter_time

        delta_sq = float(np.linalg.norm(x - x_next) ** 2)
        trace.step_deltas.append(delta_sq)
        x = x_next
        if keep_iterates:
            trace.iterates.append(x.copy())
        else:
            trace.iterates[-1] = x.copy()
        err = float(np.linalg.norm(x - reference))
        trace.errors_vs_truth.append(err)
        metrics.snapshot(it + 1, err)

        if stop.tol > 0:
            if err <= stop.tol * max(ref_norm, 1e-300):
                trace.converged_at = it + 1
                break

    return ReferenceDihtRun(tree=tree, agent_estimates=agent_estimates, sums=sums,
                   metrics=metrics, trace=trace, l=l)


def dense_run_diht(problem: Problem, graph: Graph, stop: StopRule) -> DihtRun:
    """run_diht on the shared loop, with every agent's decoded copy of the
    iterate held as one row of a (p, n) block and the batched gradients
    taken at the rows."""
    k = problem.k
    l = default_step_constant(problem)

    tree = bfs_spanning_tree(graph, root=0)
    a, b = padded_slices(problem.slices)
    estimates = np.zeros((problem.p, problem.n))  # row q: agent q's copy of the iterate

    def gradient(x):
        # broadcast phase: the iterate travels down the tree as at most k
        # (index, value) pairs, and every agent decodes them into its row;
        # convergecast phase: the agents' gradients at their rows are
        # summed toward the root
        support = np.flatnonzero(x)[:k]
        estimates.fill(0.0)
        estimates[:, support] = x[support]
        return _tree_sum(tree, batched_gradients(a, b, estimates))

    config = IhtConfig(l=l, k=k, max_iters=stop.max_iters, tol=stop.tol)
    trace = run_iht(gradient, problem.x_star, config)

    nonleaf = sum(1 for v in range(tree.p) if tree.children[v])
    up_values = (problem.p - 1) * problem.n
    cost = ((problem.p - 1) * 2 * k + up_values, 2 * (problem.p - 1),
            2 * k * nonleaf + up_values, 2 * tree.height)
    metrics = RunMetrics.from_costs(trace.errors_vs_truth[1:],
                                    [cost] * len(trace.step_deltas),
                                    start=(0, tree.build_messages, 0, 0))  # the tree build

    return DihtRun(tree=tree, agent_estimates=list(estimates), metrics=metrics,
                   trace=trace, l=l)


def k_column_gradient(problem: Problem):
    """The gradient oracle run_diht took before the cached Gram columns: the
    convergecast's sum as one product 2 A^T (A_S x_S - b) over the stacked
    rows, its forward product on the K columns sent."""
    a, b = problem.stacked()
    return lambda x, support: 2.0 * (a.T @ (a[:, support] @ x[support] - b))


def k_column_run_diht(problem: Problem, graph: Graph, **kwargs) -> DihtRun:
    """run_diht with its gradient taken on the K columns sent.  It runs on a
    fresh copy of the problem, which keeps no trajectory of an earlier run,
    and checks that the K-column gradient served every step."""
    steps = []

    def oracle(prob):
        gradient = k_column_gradient(prob)

        def counted(x, support):
            steps.append(x)
            return gradient(x, support)

        return counted

    with mock.patch.object(diht, "support_gradient", oracle):
        run = run_diht(replace(problem), graph, **kwargs)
    assert len(steps) == len(run.trace.step_deltas)
    return run


RTOL = 1e-12


def assert_close(fast, slow):
    """Equal up to float64 drift: within RTOL of the series' largest magnitude."""
    fast, slow = np.asarray(fast, dtype=float), np.asarray(slow, dtype=float)
    assert fast.shape == slow.shape
    scale = float(np.max(np.abs(slow), initial=0.0))
    np.testing.assert_allclose(fast, slow, rtol=RTOL, atol=RTOL * scale)


def assert_runs_equal(fast, slow):
    assert fast.l == slow.l
    assert fast.trace.converged_at == slow.trace.converged_at
    assert_close(fast.trace.errors_vs_truth, slow.trace.errors_vs_truth)
    assert_close(fast.trace.step_deltas, slow.trace.step_deltas)
    for name in ("values_sent", "messages_sent", "broadcasts", "time_steps"):
        assert getattr(fast.metrics, name) == getattr(slow.metrics, name), name
    fast_rows, slow_rows = fast.metrics.per_iteration, slow.metrics.per_iteration
    counters = [[{**r, "err": None} for r in rows] for rows in (fast_rows, slow_rows)]
    assert counters[0] == counters[1]
    assert_close([r["err"] for r in fast_rows], [r["err"] for r in slow_rows])
    assert_close(fast.trace.iterates, slow.trace.iterates)
    assert_close(fast.agent_estimates, slow.agent_estimates)


def draw_graph(family, p, seed):
    if p == 1:
        return Graph(p=1, edges=[])
    if family == "ba":
        return gen_barabasi_albert(p, 1 + seed % (p - 1), seed)
    if family == "er":
        return gen_erdos_renyi(p, 0.5, seed)
    return gen_geometric(p, 0.6, seed)


@settings(max_examples=80, deadline=None)
@given(p=st.integers(1, 7), family=st.sampled_from(["er", "ba", "geo"]),
       seed=st.integers(0, 10 ** 6),
       tol=st.sampled_from([0.0, 1e-1, 1e-2, 1e-5]), keep_iterates=st.booleans(),
       scaled_l=st.booleans(), max_iters=st.integers(1, 40))
def test_matches_reference_loop(p, family, seed, tol, keep_iterates, scaled_l, max_iters):
    rng = np.random.default_rng(seed)
    n, m, k = (int(rng.integers(8, 30)), int(rng.integers(p, 3 * p + 6)),
               int(rng.integers(1, 4)))
    ensemble = "tight-frame" if m <= n and rng.random() < 0.5 else "gaussian"
    prob = generate_problem(n, m, k, p, seed=seed, ensemble=ensemble)
    graph = draw_graph(family, p, seed)
    if tol > 0:
        ref = prob.x_star
        # the shared loop stops at a start that already meets the tolerance
        assume(np.linalg.norm(ref) > tol * max(np.linalg.norm(ref), 1e-300))
    kwargs = dict(stop=StopRule(tol=tol, max_iters=max_iters),
                  keep_iterates=keep_iterates,
                  l=1.5 * loss_info(prob).lipschitz_global if scaled_l else None)
    fast = run_diht(prob, graph, **kwargs)
    assert_runs_equal(fast, reference_run_diht(prob, graph, **kwargs))
    if keep_iterates:  # else the last broadcast iterate is not kept
        assert_agents_hold_last_broadcast(fast, k, np.zeros(n))


def test_start_within_tolerance_stops_at_zero_iterations():
    prob = generate_problem(40, 20, 3, 5, seed=3, ensemble="tight-frame")
    graph = gen_erdos_renyi(5, 0.6, 4)
    stop = StopRule(tol=1e-2, max_iters=50)
    run = run_diht(replace(prob, x_star=np.zeros(40)), graph, stop=stop)
    assert run.trace.converged_at == 0
    assert run.trace.step_deltas == [] and run.metrics.per_iteration == []
    assert len(run.trace.iterates) == 1
    assert_agents_hold_last_broadcast(run, prob.k, np.zeros(40))
    assert run.metrics.values_sent == 0
    assert run.metrics.messages_sent == run.tree.build_messages
    # the old loop always took one step before testing the tolerance
    assert reference_run_diht(prob, graph, stop=stop,
                              x_init=prob.x_star).trace.converged_at == 1


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 60), family=st.sampled_from(["er", "ba", "geo"]),
       seed=st.integers(0, 10 ** 6), n=st.integers(1, 12))
def test_tree_sum_matches_list_loop_bit_for_bit(p, family, seed, n):
    tree = bfs_spanning_tree(draw_graph(family, p, seed), root=0)
    rows = np.random.default_rng(seed).standard_normal((p, n))
    want = list_tree_sum(tree, list(rows))
    np.testing.assert_array_equal(_tree_sum(tree, list(rows)), want)
    np.testing.assert_array_equal(_tree_sum(tree, rows.copy()), want)


@settings(max_examples=80, deadline=None)
@given(p=st.integers(1, 8), family=st.sampled_from(["er", "ba", "geo"]),
       seed=st.integers(0, 10 ** 6), n=st.integers(1, 60), data=st.data(),
       tol=st.sampled_from([0.0, 1e-2, 1e-5]), max_iters=st.integers(1, 40))
def test_k_column_gradient_matches_dense_decode(p, family, seed, n, data, tol, max_iters):
    k = data.draw(st.integers(1, n), label="k")
    m = data.draw(st.integers(p, 3 * p + 6), label="m")
    prob = generate_problem(n, m, k, p, seed=seed)
    graph = draw_graph(family, p, seed)
    stop = StopRule(tol=tol, max_iters=max_iters)
    fast, slow = run_diht(prob, graph, stop=stop), dense_run_diht(prob, graph, stop)
    assert fast.l == slow.l
    x0 = np.zeros(n)
    assert_agents_hold_last_broadcast(fast, k, x0)
    assert_agents_hold_last_broadcast(slow, k, x0)
    assert fast.trace.converged_at == slow.trace.converged_at
    assert fast.metrics.totals == slow.metrics.totals
    for name, col in fast.metrics.columns.items():
        if name != "err":
            np.testing.assert_array_equal(col, slow.metrics.columns[name])
    assert len(fast.trace.iterates) == len(slow.trace.iterates)
    for u, v in zip(fast.trace.iterates, slow.trace.iterates):
        np.testing.assert_array_equal(np.flatnonzero(u), np.flatnonzero(v))
    assert_close(fast.trace.iterates, slow.trace.iterates)
    assert_close(fast.trace.errors_vs_truth, slow.trace.errors_vs_truth)
    assert_close(fast.metrics.columns["err"], slow.metrics.columns["err"])
    assert_close(fast.trace.step_deltas, slow.trace.step_deltas)
    assert_close(fast.agent_estimates, slow.agent_estimates)


@settings(max_examples=80, deadline=None)
@given(p=st.integers(1, 8), family=st.sampled_from(["er", "ba", "geo"]),
       seed=st.integers(0, 10 ** 6), n=st.integers(1, 60), data=st.data(),
       ensemble=st.sampled_from(["gaussian", "tight-frame"]),
       tol=st.sampled_from([0.0, 1e-2, 1e-5]), max_iters=st.integers(1, 40),
       keep_iterates=st.booleans(), scaled_l=st.booleans())
def test_cached_columns_match_k_column_product(p, family, seed, n, data, ensemble, tol,
                                               max_iters, keep_iterates, scaled_l):
    assume(ensemble == "gaussian" or p <= n)  # a tight frame has m <= n rows
    k = data.draw(st.integers(0, n), label="k")
    m = data.draw(st.integers(p, n if ensemble == "tight-frame" else 3 * p + 6), label="m")
    prob = generate_problem(n, m, k, p, seed=seed, ensemble=ensemble)
    graph = draw_graph(family, p, seed)
    kwargs = dict(stop=StopRule(tol=tol, max_iters=max_iters), keep_iterates=keep_iterates,
                  l=1.5 * loss_info(prob).lipschitz_global if scaled_l else None)
    fast, slow = run_diht(prob, graph, **kwargs), k_column_run_diht(prob, graph, **kwargs)
    assert fast.l == slow.l
    assert fast.trace.converged_at == slow.trace.converged_at
    assert fast.metrics.totals == slow.metrics.totals
    assert list(fast.metrics.columns) == list(slow.metrics.columns)
    for name, col in fast.metrics.columns.items():
        if name != "err":
            np.testing.assert_array_equal(col, slow.metrics.columns[name])
    assert len(fast.trace.iterates) == len(slow.trace.iterates)
    for u, v in zip(fast.trace.iterates, slow.trace.iterates):
        np.testing.assert_array_equal(np.flatnonzero(u), np.flatnonzero(v))
    for series in ("iterates", "errors_vs_truth", "step_deltas"):
        assert_close(getattr(fast.trace, series), getattr(slow.trace, series))
    assert_close(fast.metrics.columns["err"], slow.metrics.columns["err"])
    assert_close(fast.agent_estimates, slow.agent_estimates)
    if keep_iterates:
        assert_agents_hold_last_broadcast(fast, k, np.zeros(n))
