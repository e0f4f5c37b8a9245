"""Consensus-based distributed IHT for time-varying networks.

Agent 0 drives the outer loop: it evaluates its local gradient, floods an
instance-tagged INITIATE carrying the current sparse iterate, lets the
diffusive averaging run for a scheduled number of steps, and thresholds its
local estimate of the scaled gradient average.  Other agents join whatever
freshest instance reaches them, abandoning older ones; stale traffic still
costs bandwidth and is counted.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .consensus import DiffusiveConsensus, directed_links
from .diht import Metrics, StopRule, default_step_constant
from .graphs import TvSchedule, validate_connectivity_window
from .iht import IhtConfig, IhtTrace, _run
from .iht import hard_threshold  # noqa: F401  rebound by perfbench's traced pass
from .model import Problem, lipschitz_of_slice, loss_gradient, stacked_lipschitz
from .model import loss_info  # noqa: F401  rebound by perfbench's traced pass


def consensus_steps(k: int, x: np.ndarray) -> int:
    """Averaging steps granted to outer iteration k: ceil((k + ||x||^2)/2).

    Clamped to at least one step so the very first instance still
    disseminates (the raw formula yields 0 at k=0 from a zero start).
    """
    if k < 0:
        raise ValueError("iteration index must be nonnegative")
    x = np.asarray(x, dtype=float)
    return max(1, int(math.ceil(0.5 * (k + float(x @ x)))))


@dataclass
class CbDihtRun:
    agent1_trace: IhtTrace
    per_agent_last_iter: list
    metrics: Metrics
    s_schedule: list
    v_hats: list
    problem: Problem
    l_tv: float
    k_sparsity: int
    agent1_converged_at: Optional[int] = None
    global_converged_at: Optional[int] = None  # every agent within the tolerance
    initiated_counts: list = field(default_factory=list)
    worst_errors: list = field(default_factory=list)  # max over agents, per outer
    final_estimates: list = field(default_factory=list)


def default_l_tv(problem: Problem, safety: float = 1.005) -> float:
    """Default step bound: the stacked smoothness constant over p, padded.

    This is the tightest choice that certifies convergence; large multiples
    of it slow the outer loop and invite spurious fixed points of the
    thresholded update.
    """
    return default_step_constant(problem, safety) / problem.p


def max_consensus_l_tv(problem: Problem, safety: float = 1.005) -> float:
    """Step bound a deployment can find without the stacked matrix: the
    largest per-agent smoothness constant dominates the per-agent average."""
    return safety * max(lipschitz_of_slice(s) for s in problem.slices)


def run_cbdiht(problem: Problem, schedule: TvSchedule,
               l_tv: Optional[float] = None, k_sparsity: Optional[int] = None,
               stop: Optional[StopRule] = None, x_init: Optional[np.ndarray] = None,
               s_fn: Optional[Callable[[int, np.ndarray], int]] = None,
               keep_iterates: bool = True, validate_schedule: bool = True) -> CbDihtRun:
    """Simulate the consensus-based algorithm on a periodic link schedule.

    The outer loop is inexact IHT: agent 0 steps along its consensus estimate
    v_hat of the average local gradient with step constant l_tv, so the
    gradient error is p * v_hat - grad f(x_k).  Every transmitted value is
    counted: N per vector per active link direction per averaging step, 2K
    per INITIATE; one schedule step is one synchronous time step.  The run
    stops when every agent's latest-joined iterate is within stop.tol of the
    reference (after 0 outer iterations if the start is), or at the budget.
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
    elif l_tv <= stacked_lipschitz(problem) / p:
        warnings.warn("l_tv at or below the stacked constant over p: "
                      "convergence is not guaranteed", RuntimeWarning)
    s_fn = s_fn or consensus_steps
    config = IhtConfig(l=l_tv, k=k, max_iters=stop.max_iters, tol=stop.tol,
                       x_init=np.zeros(n) if x_init is None else x_init)
    reference = stop.reference_vector(problem)

    periods = [directed_links(links, p) for links in schedule.subgraphs]
    # agents of one instance share their estimate array, never written in place
    estimates = [config.x_init] * p
    machine = DiffusiveConsensus(p, 0, np.zeros(n))
    s_schedule, v_hats, initiated_counts, eps_norms, worst_errors = [], [], [], [], []
    step_counts = []  # per outer iteration, one row per averaging step

    def gradient(x):
        # agent 0 opens instance `outer` at x; the slice gradients at x are
        # shared by agent 0, every joiner of this instance and the eps diagnostic
        outer = len(s_schedule)
        estimates[0] = x
        grads = [loss_gradient(sl, x) for sl in problem.slices]
        machine.open(outer, 0, grads[0])
        s_k = int(s_fn(outer, x))
        s_schedule.append(s_k)

        def join(q, a):
            # q copies a's iterate and contributes its local gradient there
            # from the next step on
            estimates[q] = estimates[a]
            if machine.inst[q] == outer:
                return grads[q]
            return loss_gradient(problem.slices[q], estimates[q])

        # per step: vector sends, their senders, INITIATEs, their senders
        counts = np.zeros((s_k, 4), dtype=np.int64)
        for row in counts:
            links = periods[machine.step_count % len(periods)]
            sends, initiates = machine.step(links, join)
            row[:] = (sends.sum(), np.count_nonzero(sends),
                      initiates.sum(), np.count_nonzero(initiates))
        step_counts.append(counts)
        v_hat = machine.values[0].copy()
        v_hats.append(v_hat)
        initiated_counts.append(int(np.sum(machine.inst == outer)))
        eps_norms.append(float(np.linalg.norm(p * v_hat - sum(grads, np.zeros(n)))))
        return v_hat

    rule, bound = None, 0.0  # without a reference, agent 0 stops on its step size
    if reference is not None:
        bound = stop.tol * max(float(np.linalg.norm(reference)), 1e-300)

        def rule(x, x_prev):
            # every agent within the tolerance: agent 0 holds x, the others
            # the iterate they last joined
            distinct = {id(e): e for e in [x] + estimates[1:]}.values()
            worst = max(float(np.linalg.norm(e - reference)) for e in distinct)
            if x_prev is not None:  # one record per outer iteration
                worst_errors.append(worst)
            return stop.tol > 0 and worst <= bound

    trace = _run(gradient, None, reference, config, None, keep_iterates, rule)
    trace.eps_norms = eps_norms

    # a vector costs N values and N broadcasts per sender, an INITIATE 2K;
    # outer iteration k takes s_k time steps
    sends, senders, initiates, initiators = np.reshape(
        [c.sum(axis=0) for c in step_counts], (-1, 4)).T
    costs = np.column_stack([n * sends + 2 * k * initiates, sends + initiates,
                             n * senders + 2 * k * initiators, s_schedule])
    metrics = Metrics.from_costs(
        trace.errors_vs_truth[1:] or None, costs,
        extra={"outer_iter": np.arange(len(s_schedule)), "s_k": s_schedule,
               "eps_norm_sq": [e ** 2 for e in eps_norms],  # as Python squares them
               "initiated_count": initiated_counts})
    return CbDihtRun(
        agent1_trace=trace, per_agent_last_iter=machine.inst.tolist(), metrics=metrics,
        s_schedule=s_schedule, v_hats=v_hats, problem=problem, l_tv=l_tv, k_sparsity=k,
        agent1_converged_at=next((i for i, e in enumerate(trace.errors_vs_truth)
                                  if stop.tol > 0 and e <= bound), None),
        global_converged_at=trace.converged_at if reference is not None else None,
        initiated_counts=initiated_counts, worst_errors=worst_errors,
        final_estimates=[e.copy() for e in [trace.final] + estimates[1:]])


def epsilon_series(run: CbDihtRun) -> np.ndarray:
    """Squared gradient-approximation errors ||p v_hat - grad f(x_k)||^2, one
    per outer iteration, as the run recorded them."""
    return np.square(run.agent1_trace.eps_norms)


def max_consensus(schedule: TvSchedule, per_agent_values, steps: int) -> np.ndarray:
    """Flood the per-agent scalars for `steps` steps, keeping running maxima.

    All agents participate from the start; on every step each agent adopts
    the largest value heard over the links present that step.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    vals = np.array([float(v) for v in per_agent_values])
    if vals.shape[0] != schedule.p:
        raise ValueError("need one value per agent")
    for t in range(steps):
        new = vals.copy()
        for u, v in schedule.edges_at(t):
            new[u] = max(new[u], vals[v])
            new[v] = max(new[v], vals[u])
        vals = new
    return vals
