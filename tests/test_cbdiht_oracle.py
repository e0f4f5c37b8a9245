"""Differential oracle for run_cbdiht: the original per-agent loop, kept verbatim.

The library runs the averaging step on per-period edge arrays, mixes p x p
coefficient rows instead of N-vectors and takes the slice gradients in one
batch; this loop rebuilds neighbour lists from sets, fills the weight matrix
entry by entry, averages the vectors themselves and counts sends agent by
agent.  Both agree exactly on every counter, schedule, instance count, join
and stop index.  The consensus averages, iterates, estimates and errors are
summed in a different order, so they agree to float64 drift (1e-12 of each
series' largest magnitude).  The gradient error eps = p v_hat - grad f(x_k)
is a difference of nearly equal terms, so it agrees within 1e-12 of the
scale of those terms, p ||v_hat|| + sum_q ||grad f_q(x_k)||.
"""
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from hypothesis import given, settings, strategies as st
from oracles import cbdiht_settings

from distiht.cbdiht import CbDihtRun, consensus_steps, default_l_tv, run_cbdiht
from distiht.diht import StopRule
from distiht.graphs import Graph, TvSchedule, validate_connectivity_window
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


@dataclass
class InitiateMsg:
    """Instance-tagged activation payload: the sparse iterate of instance k."""

    k: int
    x: np.ndarray


def reference_run_cbdiht(problem: Problem, schedule: TvSchedule,
                         l_tv: Optional[float] = None, k_sparsity: Optional[int] = None,
                         stop: Optional[StopRule] = None,
                         x_init: Optional[np.ndarray] = None,
                         s_fn: Optional[Callable[[int, np.ndarray], int]] = None,
                         keep_iterates: bool = True,
                         validate_schedule: bool = True) -> CbDihtRun:
    """Simulate the consensus-based algorithm on a periodic link schedule.

    Every transmitted value is counted: N per vector per active link
    direction per averaging step, 2K per INITIATE.  One schedule step is one
    synchronous time step.  The run stops when every agent's latest-joined
    iterate is within stop.tol of the ground truth, or at the outer budget.
    """
    p, n = problem.p, problem.n
    if schedule.p != p:
        raise ValueError("schedule and problem disagree on the agent count")
    if validate_schedule:
        validate_connectivity_window(schedule)  # raises AssumptionViolation
    k = problem.k if k_sparsity is None else k_sparsity
    stop = stop or StopRule(max_iters=1000)
    if l_tv is None:
        l_tv = default_l_tv(problem)
    elif l_tv <= 0:
        raise ValueError("l_tv must be positive")
    else:
        info = loss_info(problem)
        if l_tv <= info.lipschitz_global / p:
            warnings.warn("l_tv at or below the stacked constant over p: "
                          "convergence is not guaranteed", RuntimeWarning)
    s_fn = s_fn or consensus_steps

    x1 = np.zeros(n) if x_init is None else np.asarray(x_init, dtype=float).copy()
    if np.count_nonzero(x1) > k:
        raise ValueError("x_init is not k-sparse")
    reference = problem.x_star
    ref_norm = float(np.linalg.norm(reference))

    # per-agent protocol state; instance -1 means "never joined anything"
    inst = np.full(p, -1, dtype=int)
    inst[0] = 0
    estimates = [x1.copy() for _ in range(p)]
    values = np.zeros((p, n))
    active = [set() for _ in range(p)]

    trace = IhtTrace()
    trace.iterates.append(x1.copy())
    trace.errors_vs_truth.append(float(np.linalg.norm(x1 - reference)))
    metrics = Metrics()
    run = CbDihtRun(agent1_trace=trace, per_agent_last_iter=[0] + [-1] * (p - 1),
                    metrics=metrics, s_schedule=[], v_hats=[], problem=problem,
                    l_tv=l_tv)

    t_now = 0
    for outer in range(stop.max_iters):
        # agent 0 opens instance `outer`: local gradient, fresh activation
        values[0] = loss_gradient(problem.slices[0], x1)
        active[0] = set()
        inst[0] = outer
        run.per_agent_last_iter[0] = outer
        s_k = int(s_fn(outer, x1))
        run.s_schedule.append(s_k)

        for _ in range(s_k):
            links = schedule.edges_at(t_now)
            t_now += 1
            metrics.time_steps += 1
            present = [[] for _ in range(p)]
            for u, v in links:
                present[u].append(v)
                present[v].append(u)

            # averaging among same-instance, mutually active, present pairs
            nbrs = [[q for q in present[a] if q in active[a]
                     and inst[q] == inst[a] and a in active[q]]
                    for a in range(p)]
            w = np.zeros((p, p))
            for a in range(p):
                for q in nbrs[a]:
                    w[a, q] = 1.0 / (1.0 + max(len(nbrs[a]), len(nbrs[q])))
            np.fill_diagonal(w, 1.0 - w.sum(axis=1))
            mixed = w @ values
            for a in range(p):
                if not nbrs[a]:
                    mixed[a] = values[a]  # holders keep their row bit-exact
            values = mixed

            # every joined agent ships its vector on its active present links,
            # whether or not the far end still listens to this instance
            for a in range(p):
                if inst[a] < 0:
                    continue
                sends = sum(1 for q in present[a] if q in active[a])
                if sends:
                    metrics.values_sent += sends * n
                    metrics.messages_sent += sends
                    metrics.broadcasts += n

            # INITIATE wave over present, inactive links
            for a in range(p):
                if inst[a] < 0:
                    continue
                fresh = [q for q in present[a] if q not in active[a]]
                if not fresh:
                    continue
                metrics.broadcasts += 2 * k
                msg = InitiateMsg(k=int(inst[a]), x=estimates[a])
                for q in fresh:
                    metrics.values_sent += 2 * k
                    metrics.messages_sent += 1
                    active[a].add(q)
                    if msg.k > inst[q]:
                        # fresher instance: drop old state, copy the iterate,
                        # contribute the local gradient from the next step on
                        inst[q] = msg.k
                        estimates[q] = msg.x.copy()
                        values[q] = loss_gradient(problem.slices[q], estimates[q])
                        active[q] = {a}
                        run.per_agent_last_iter[q] = msg.k
                    elif msg.k == inst[q]:
                        active[q].add(a)  # pure link activation
                    # an already-fresher receiver ignores the message

        v_hat = values[0].copy()
        if not np.all(np.isfinite(v_hat)):
            raise NumericFailure(outer, "consensus average")
        run.v_hats.append(v_hat)
        run.initiated_counts.append(int(np.sum(inst == outer)))

        grad_sum = np.zeros(n)
        for sl in problem.slices:
            grad_sum += loss_gradient(sl, x1)
        eps = p * v_hat - grad_sum
        trace.eps_norms.append(float(np.linalg.norm(eps)))

        x_next = hard_threshold(x1 - v_hat / l_tv, k)
        trace.step_deltas.append(float(np.linalg.norm(x1 - x_next) ** 2))
        x1 = x_next
        estimates[0] = x1.copy()
        if keep_iterates:
            trace.iterates.append(x1.copy())
        else:
            trace.iterates[-1] = x1.copy()

        err = float(np.linalg.norm(x1 - reference))
        trace.errors_vs_truth.append(err)
        if (run.agent1_converged_at is None and stop.tol > 0
                and err <= stop.tol * max(ref_norm, 1e-300)):
            run.agent1_converged_at = outer + 1
            trace.converged_at = outer + 1
        metrics.snapshot(outer + 1, err,
                         extra={"outer_iter": outer, "s_k": s_k,
                                "eps_norm_sq": trace.eps_norms[-1] ** 2,
                                "initiated_count": run.initiated_counts[-1]})

        worst = max(float(np.linalg.norm(e - reference)) for e in estimates)
        run.worst_errors.append(worst)
        if stop.tol > 0 and worst <= stop.tol * max(ref_norm, 1e-300):
            run.global_converged_at = outer + 1
            run.global_converged_rounds = metrics.time_steps
            break
    run.final_estimates = [e.copy() for e in estimates]
    return run


def random_schedule(p, seed, count, retain):
    """Random subgraphs of a random graph; the union need not be connected."""
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(p) for v in range(u + 1, p)]
    base = [e for e in pairs if rng.random() < 0.6] or [(0, 1)]
    subgraphs = [[e for e in base if rng.random() < retain] for _ in range(count)]
    subgraphs[rng.integers(count)] += [e for e in base
                                       if not any(e in s for s in subgraphs)]
    return TvSchedule(base=Graph(p=p, edges=base), subgraphs=subgraphs)


RTOL = 1e-12


def assert_close(fast, slow):
    """Equal up to float64 drift: within RTOL of the series' largest magnitude."""
    fast, slow = np.asarray(fast, dtype=float), np.asarray(slow, dtype=float)
    assert fast.shape == slow.shape
    scale = float(np.max(np.abs(slow), initial=0.0))
    np.testing.assert_allclose(fast, slow, rtol=RTOL, atol=RTOL * scale)


def eps_scales(run):
    """p ||v_hat_k|| + sum_q ||grad f_q(x_k)|| per outer iteration, from a run
    that kept its iterates: the size of the terms eps is the difference of."""
    p, iterates = run.problem.p, run.agent1_trace.iterates
    assert len(iterates) > len(run.v_hats)
    return np.array([p * np.linalg.norm(v_hat) + sum(
        np.linalg.norm(loss_gradient(sl, xk)) for sl in run.problem.slices)
        for v_hat, xk in zip(run.v_hats, iterates)])


def assert_eps_close(fast, slow, scales):
    fast, slow = np.asarray(fast, dtype=float), np.asarray(slow, dtype=float)
    assert fast.shape == slow.shape == scales.shape
    assert np.all(np.abs(fast - slow) <= RTOL * scales)


def assert_runs_equal(fast, slow):
    for name in ("values_sent", "messages_sent", "broadcasts", "time_steps"):
        assert getattr(fast.metrics, name) == getattr(slow.metrics, name), name
    assert fast.s_schedule == slow.s_schedule
    assert fast.initiated_counts == slow.initiated_counts
    assert fast.per_agent_last_iter == slow.per_agent_last_iter
    assert (fast.global_converged_at, fast.agent1_converged_at) == \
        (slow.global_converged_at, slow.agent1_converged_at)
    assert_close(fast.worst_errors, slow.worst_errors)
    assert_eps_close(fast.agent1_trace.eps_norms, slow.agent1_trace.eps_norms,
                     eps_scales(slow))
    for name in ("v_hats", "final_estimates"):
        a, b = getattr(fast, name), getattr(slow, name)
        assert len(a) == len(b), name
        assert_close(np.reshape(a, (len(a), -1)), np.reshape(b, (len(b), -1)))


@settings(max_examples=60, deadline=None)
@given(p=st.integers(2, 8), seed=st.integers(0, 10 ** 6),
       count=st.integers(1, 6), retain=st.floats(0.2, 0.8),
       steps=st.sampled_from([None, 1, 3]), tol=st.sampled_from([0.0, 1e-3]),
       max_iters=st.integers(1, 12))
def test_matches_reference_loop(p, seed, count, retain, steps, tol, max_iters):
    prob = generate_problem(40, 4 * p, 3, p, seed=seed, ensemble="tight-frame")
    sched = random_schedule(p, seed, count, retain)
    s_fn = None if steps is None else (lambda k, x: steps)
    stop = StopRule(tol=tol, max_iters=max_iters)
    with cbdiht_settings(steps=s_fn, checked=False):
        fast = run_cbdiht(prob, sched, stop=stop)
    assert_runs_equal(fast, reference_run_cbdiht(prob, sched, stop=stop, s_fn=s_fn,
                                                 validate_schedule=False))


def test_matches_reference_with_stale_instances():
    # one step per instance on a sparse ring: far agents join old instances
    p = 8
    prob = generate_problem(40, 32, 3, p, seed=5, ensemble="tight-frame")
    ring = Graph(p=p, edges=[(i, (i + 1) % p) for i in range(p)])
    sched = TvSchedule(base=ring, subgraphs=[ring.edges[:4], ring.edges[4:]])
    stop, s_fn = StopRule(tol=0, max_iters=15), lambda k, x: 1
    with cbdiht_settings(steps=s_fn):
        fast = run_cbdiht(prob, sched, stop=stop)
    assert_runs_equal(fast, reference_run_cbdiht(prob, sched, stop=stop, s_fn=s_fn))
    assert min(fast.per_agent_last_iter) < fast.per_agent_last_iter[0] - 1


@settings(max_examples=30, deadline=None)
@given(p=st.integers(2, 6), seed=st.integers(0, 10 ** 6),
       count=st.integers(1, 4), steps=st.sampled_from([None, 1, 3]),
       tol=st.sampled_from([0.0, 1e-3]), max_iters=st.integers(1, 10))
def test_metrics_rows_match_reference_loop(p, seed, count, steps, tol, max_iters):
    # the curve files are written from these rows
    prob = generate_problem(40, 4 * p, 3, p, seed=seed, ensemble="tight-frame")
    sched = random_schedule(p, seed, count, 0.5)
    s_fn = None if steps is None else (lambda k, x: steps)
    stop = StopRule(tol=tol, max_iters=max_iters)
    with cbdiht_settings(steps=s_fn, checked=False):
        fast = run_cbdiht(prob, sched, stop=stop, keep_iterates=False)
    kwargs = dict(stop=stop, s_fn=s_fn, validate_schedule=False, keep_iterates=False)
    slow = reference_run_cbdiht(prob, sched, **kwargs)
    # the same reference run with every iterate kept sizes the eps bound
    scales = eps_scales(reference_run_cbdiht(prob, sched,
                                             **{**kwargs, "keep_iterates": True}))
    rows, want = fast.metrics.per_iteration, slow.metrics.per_iteration
    assert len(rows) == len(want) and all(r.keys() == w.keys() for r, w in zip(rows, want))
    for col in want[0].keys() if want else ():
        got, exp = [r[col] for r in rows], [w[col] for w in want]
        if col == "err":
            assert_close(got, exp)
        elif col == "eps_norm_sq":
            assert_eps_close(np.sqrt(got), np.sqrt(exp), scales)
        else:
            assert got == exp, col
    assert_close(fast.agent1_trace.step_deltas, slow.agent1_trace.step_deltas)
    assert_close(fast.agent1_trace.errors_vs_truth, slow.agent1_trace.errors_vs_truth)
    assert_close(fast.agent1_trace.final, slow.agent1_trace.final)
