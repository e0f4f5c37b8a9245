"""Differential oracle for run_subgradient: the original loop, kept verbatim.

That loop added the four counters every iteration, recorded the first
crossing of each requested accuracy itself and thinned its metric rows
with record_every.  It projected through the explicit a^T (a a^T)^-1 of
each slice, batched with einsum when the slices had one row count and
agent by agent otherwise.  The library fills the counters in after the run
from one row per period step, projects every agent through the slices'
orthonormal form in one padded batch, records the first step within each
accuracy in its stop check, and keeps only the curve rows it reports.  Both
must agree exactly on every counter, crossing and stop, and to 1e-10
relative on every error and estimate: the two projections round differently.
"""
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from hypothesis import given, settings, strategies as st

from distiht import subgradient
from distiht.consensus import metropolis_weights
from distiht.graphs import (Graph, TvSchedule, gen_erdos_renyi, gen_tv_schedule,
                            static_schedule)
from distiht.harness import ExperimentConfig, _run_subgrad
from distiht.model import Problem, SensingSlice, generate_problem
from distiht.subgradient import SubgradConfig


class AffineProjector:
    """Projection onto {x : a x = b} with the small Gram factored once."""

    def __init__(self, sl: SensingSlice, agent: Optional[int] = None):
        gram = sl.a @ sl.a.T
        eigs = np.linalg.eigvalsh(gram)
        if eigs[0] <= 0 or eigs[-1] / eigs[0] > 1e12:
            raise np.linalg.LinAlgError(
                f"rank-deficient measurement rows at agent {agent}")
        self._aT_gram_inv = sl.a.T @ np.linalg.inv(gram)
        self._a = sl.a
        self._b = sl.b

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x - self._aT_gram_inv @ (self._a @ x - self._b)


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
class SubgradTrace:
    worst_errors: list = field(default_factory=list)  # max over agents, per iter
    converged_at: Optional[int] = None
    estimates: Optional[np.ndarray] = None  # final (p, n) stack
    crossings: dict = field(default_factory=dict)  # accuracy -> counters


def reference_run_subgradient(problem: Problem,
                              graph_or_schedule: Union[Graph, TvSchedule],
                              config: Optional[SubgradConfig] = None,
                              reference: Optional[np.ndarray] = None,
                              accuracies=(), record_every: int = 1) -> tuple:
    """Run the baseline; returns (SubgradTrace, Metrics).

    Convergence is declared when every agent's estimate is within tol of the
    reference (the ground truth unless overridden), relative to its norm.
    Every iteration each agent ships its full estimate to all neighbors
    present that step, which dominates the value count.  For long budgets,
    per-iteration metric rows can be thinned with record_every while the
    first crossing of each requested accuracy is still captured exactly.
    """
    config = config or SubgradConfig()
    schedule = (static_schedule(graph_or_schedule)
                if isinstance(graph_or_schedule, Graph) else graph_or_schedule)
    if schedule.p != problem.p:
        raise ValueError("network and problem disagree on the agent count")
    ref = problem.x_star if reference is None else np.asarray(reference, dtype=float)
    ref_norm = max(float(np.linalg.norm(ref)), 1e-300)

    p, n = problem.p, problem.n
    projectors = [AffineProjector(problem.slices[q], agent=q) for q in range(p)]
    # uniform slice shapes admit one batched projection per iteration
    uniform = len({sl.m_p for sl in problem.slices}) == 1
    if uniform:
        a_stack = np.stack([sl.a for sl in problem.slices])
        b_stack = np.stack([sl.b for sl in problem.slices])
        proj_stack = np.stack([pr._aT_gram_inv for pr in projectors])
    x = np.zeros((p, n))
    trace = SubgradTrace()
    metrics = Metrics()

    weights_cache = {}
    for t in range(config.max_iters):
        links = schedule.edges_at(t)
        key = t % schedule.period
        if key not in weights_cache:
            touched = {v for e in links for v in e}
            weights_cache[key] = (metropolis_weights(links, p), 2 * len(links),
                                  len(touched))
        w, deg_sum, sender_count = weights_cache[key]

        u = w @ x
        alpha = (t + 1.0) ** (-config.step_exponent)
        y = u - alpha * np.sign(x)
        if uniform:
            resid = np.einsum("pmn,pn->pm", a_stack, y) - b_stack
            x = y - np.einsum("pnm,pm->pn", proj_stack, resid)
        else:
            for q in range(p):
                x[q] = projectors[q](y[q])

        metrics.values_sent += deg_sum * n
        metrics.messages_sent += deg_sum
        metrics.broadcasts += sender_count * n
        metrics.time_steps += 1

        diffs = x - ref
        worst = float(np.sqrt((diffs * diffs).sum(axis=1).max()))
        trace.worst_errors.append(worst)
        for acc in accuracies:
            if acc not in trace.crossings and worst <= acc * ref_norm:
                trace.crossings[acc] = {
                    "iterations": t + 1, "values": metrics.values_sent,
                    "messages": metrics.messages_sent,
                    "broadcasts": metrics.broadcasts,
                    "time_steps": metrics.time_steps}
        done = worst <= config.tol * ref_norm
        if done or (t + 1) % record_every == 0 or t + 1 == config.max_iters:
            metrics.snapshot(t + 1, worst)
        if done:
            trace.converged_at = t + 1
            break

    trace.estimates = x
    return trace, metrics


def run_through_harness(problem, schedule, cfg):
    """The harness runner's result, and the (trace, metrics) with every
    iteration's worst error that run_subgradient returns for the same cell."""
    config = SubgradConfig(step_exponent=cfg.step_exponent, max_iters=cfg.max_iters,
                           tol=min(cfg.accuracies))
    return (_run_subgrad(problem, schedule, cfg),
            *subgradient.run_subgradient(problem, schedule, config))


@settings(max_examples=25, deadline=None)
@given(p=st.integers(2, 5), rows=st.integers(2, 4), uneven=st.booleans(),
       seed=st.integers(0, 10 ** 6), time_varying=st.booleans(),
       max_iters=st.integers(4000, 6500), exponent=st.sampled_from([0.6, 0.8, 1.0]),
       accuracies=st.sampled_from([[0.9, 0.5], [0.5, 0.3, 0.15], [0.3, 1e-3],
                                   [0.1, 0.02, 1e-4]]))
def test_matches_reference_loop(p, rows, uneven, seed, time_varying, max_iters,
                                exponent, accuracies):
    m = p * rows + (p - 1 if uneven else 0)  # trailing agents get one row more
    prob = generate_problem(m + 4, m, 2, p, seed=seed, ensemble="tight-frame")
    assert (len({sl.m_p for sl in prob.slices}) > 1) == uneven
    graph = gen_erdos_renyi(p, 0.7, seed)
    schedule = gen_tv_schedule(graph, 3, seed + 1) if time_varying else None
    cfg = ExperimentConfig(step_exponent=exponent, max_iters=max_iters,
                           accuracies=accuracies)
    result, trace, metrics = run_through_harness(
        prob, schedule if time_varying else static_schedule(graph), cfg)
    every = max_iters // 2000
    assert every >= 2
    ref_trace, ref_metrics = reference_run_subgradient(
        prob, schedule if time_varying else graph,
        SubgradConfig(step_exponent=exponent, max_iters=max_iters,
                      tol=min(accuracies)),
        accuracies=accuracies, record_every=every)

    np.testing.assert_allclose(trace.worst_errors, ref_trace.worst_errors, rtol=1e-10)
    assert trace.converged_at == ref_trace.converged_at
    np.testing.assert_allclose(trace.estimates, ref_trace.estimates, rtol=1e-10,
                               atol=1e-10 * np.abs(ref_trace.estimates).max())
    ref_totals = (ref_metrics.values_sent, ref_metrics.messages_sent,
                  ref_metrics.broadcasts, ref_metrics.time_steps)
    assert metrics.totals == result.metrics.totals == ref_totals
    assert result.spent == (len(ref_trace.worst_errors), *ref_totals)
    assert result.crossings == {
        acc: (c["iterations"], c["values"], c["messages"], c["broadcasts"],
              c["time_steps"]) for acc, c in ref_trace.crossings.items()}
    got, want = result.metrics.per_iteration, ref_metrics.per_iteration
    np.testing.assert_allclose([r.pop("err") for r in got],
                               [r.pop("err") for r in want], rtol=1e-10)
    assert got == want
