"""Differential oracle for run_diht: the original loop, kept verbatim.

The library runs DIHT on centralized IHT's loop with a tree-summed gradient
oracle and fills the counters from their closed form; the agents' gradients
come from one batched product and the tree sum adds the rows of one (p, n)
array in place, deepest vertices first.  This file keeps the loop that had
its own copy of the stop rule, record-keeping and counting, the post-order
tree sum, and the list-based tree sum that the in-place one replaced.

The batched product rounds differently from one product per slice, so the
iterates, errors, step sizes and estimates agree to float64 drift (1e-12 of
each series' largest magnitude) rather than bit for bit.  The step
constant, the stop index, every counter and the coherence agree exactly,
and the tree sums agree bit for bit.
"""
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from distiht.diht import StopRule, _path_delay, _tree_sum, run_diht
from distiht.graphs import (Graph, SpanningTree, bfs_spanning_tree,
                            gen_barabasi_albert, gen_erdos_renyi, gen_geometric)
from distiht.iht import IhtTrace, NumericFailure, hard_threshold
from distiht.model import Problem, generate_problem, loss_gradient, loss_info


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
    coherence: list  # max over agents of |x_p - x_1| after each iteration
    l: float


def reference_run_diht(problem: Problem, graph: Graph, l: Optional[float] = None,
                       k_sparsity: Optional[int] = None, stop: Optional[StopRule] = None,
                       x_init: Optional[np.ndarray] = None, delays: Optional[dict] = None,
                       record_sums: bool = False, keep_iterates: bool = True) -> ReferenceDihtRun:
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
    reference = stop.reference_vector(problem)
    ref_norm = float(np.linalg.norm(reference)) if reference is not None else None

    trace = IhtTrace()
    trace.iterates.append(x.copy())
    if reference is not None:
        trace.errors_vs_truth.append(float(np.linalg.norm(x - reference)))
    sums = [] if record_sums else None
    coherence = []
    agent_estimates = [x.copy() for _ in range(problem.p)]

    nonleaf = sum(1 for v in range(tree.p) if tree.children[v])
    down_values = (problem.p - 1) * 2 * k
    up_values = (problem.p - 1) * n
    iter_time = 2 * _path_delay(tree, delays)

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
        step_denom = max(1.0, float(np.linalg.norm(x)))
        coherence.append(max(float(np.max(np.abs(est - x))) if est.size else 0.0
                             for est in agent_estimates))
        x = x_next
        if keep_iterates:
            trace.iterates.append(x.copy())
        else:
            trace.iterates[-1] = x.copy()
        err = None
        if reference is not None:
            err = float(np.linalg.norm(x - reference))
            trace.errors_vs_truth.append(err)
        metrics.snapshot(it + 1, float("nan") if err is None else err)

        if reference is not None and stop.tol > 0:
            if err <= stop.tol * max(ref_norm, 1e-300):
                trace.converged_at = it + 1
                break
        elif stop.tol > 0:
            if np.sqrt(delta_sq) / step_denom <= stop.tol:
                trace.converged_at = it + 1
                break

    return ReferenceDihtRun(tree=tree, agent_estimates=agent_estimates, sums=sums,
                   metrics=metrics, trace=trace, coherence=coherence, l=l)


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
    assert fast.coherence == slow.coherence
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
       reference=st.sampled_from(["truth", "self", "vector"]),
       tol=st.sampled_from([0.0, 1e-1, 1e-2, 1e-5]), keep_iterates=st.booleans(),
       delayed=st.booleans(), start=st.booleans(), scaled_l=st.booleans(),
       max_iters=st.integers(1, 40))
def test_matches_reference_loop(p, family, seed, reference, tol, keep_iterates,
                                delayed, start, scaled_l, max_iters):
    rng = np.random.default_rng(seed)
    n, m, k = (int(rng.integers(8, 30)), int(rng.integers(p, 3 * p + 6)),
               int(rng.integers(1, 4)))
    ensemble = "tight-frame" if m <= n and rng.random() < 0.5 else "gaussian"
    prob = generate_problem(n, m, k, p, seed=seed, ensemble=ensemble)
    graph = draw_graph(family, p, seed)
    if reference == "vector":
        reference = rng.standard_normal(n)
    x_init = None
    if start:
        x_init = np.zeros(n)
        x_init[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
    ref = StopRule(reference=reference).reference_vector(prob)
    if ref is not None and tol > 0:
        x0 = np.zeros(n) if x_init is None else x_init
        # the shared loop stops at a start that already meets the tolerance
        assume(np.linalg.norm(x0 - ref) > tol * max(np.linalg.norm(ref), 1e-300))
    delays = ({e: int(rng.integers(1, 4)) for e in graph.edges} if delayed else None)
    kwargs = dict(stop=StopRule(tol=tol, max_iters=max_iters, reference=reference),
                  x_init=x_init, delays=delays, keep_iterates=keep_iterates,
                  l=1.5 * loss_info(prob).lipschitz_global if scaled_l else None)
    assert_runs_equal(run_diht(prob, graph, **kwargs),
                      reference_run_diht(prob, graph, **kwargs))


def test_start_within_tolerance_stops_at_zero_iterations():
    prob = generate_problem(40, 20, 3, 5, seed=3, ensemble="tight-frame")
    graph = gen_erdos_renyi(5, 0.6, 4)
    kwargs = dict(stop=StopRule(tol=1e-2, max_iters=50), x_init=prob.x_star)
    run = run_diht(prob, graph, **kwargs)
    assert run.trace.converged_at == 0
    assert run.trace.step_deltas == [] and run.metrics.per_iteration == []
    assert run.coherence == [] and len(run.trace.iterates) == 1
    assert run.metrics.values_sent == 0
    assert run.metrics.messages_sent == run.tree.build_messages
    # the old loop always took one step before testing the tolerance
    assert reference_run_diht(prob, graph, **kwargs).trace.converged_at == 1


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 60), family=st.sampled_from(["er", "ba", "geo"]),
       seed=st.integers(0, 10 ** 6), n=st.integers(1, 12))
def test_tree_sum_matches_list_loop_bit_for_bit(p, family, seed, n):
    tree = bfs_spanning_tree(draw_graph(family, p, seed), root=0)
    rows = np.random.default_rng(seed).standard_normal((p, n))
    want = list_tree_sum(tree, list(rows))
    np.testing.assert_array_equal(_tree_sum(tree, list(rows)), want)
    np.testing.assert_array_equal(_tree_sum(tree, rows.copy()), want)
