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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .consensus import DiffusiveConsensus, directed_links
from .diht import Metrics, StopRule, default_step_constant
from .graphs import TvSchedule, validate_connectivity_window
from .iht import IhtConfig, IhtTrace, run_iht, truth_bound
from .iht import hard_threshold  # noqa: F401  rebound by perfbench's traced pass
from .model import Problem, stacked_lipschitz
from .model import loss_gradient  # noqa: F401  rebound by perfbench's traced pass
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
    agent1_converged_at: Optional[int] = None
    global_converged_at: Optional[int] = None  # every agent within the tolerance
    initiated_counts: list = field(default_factory=list)
    worst_errors: list = field(default_factory=list)  # max over agents, per outer
    final_estimates: list = field(default_factory=list)


def default_l_tv(problem: Problem) -> float:
    """Default step bound: the stacked smoothness constant over p, padded.

    This is the tightest choice that certifies convergence; large multiples
    of it slow the outer loop and invite spurious fixed points of the
    thresholded update.
    """
    return default_step_constant(problem) / problem.p


def initiator_row(steps: list, p: int) -> np.ndarray:
    """Agent 0's coefficient row after the (W, joiners) `steps` of one `walk`
    made right after agent 0 opened an instance: e_0 carried back over them,
    last first, the weight reaching a joiner stopping at its restart row e_q."""
    v, row = np.eye(1, p)[0], np.zeros(p)
    for w, joiners in reversed(steps):
        if joiners is not None:
            row[joiners] += v[joiners]
            v[joiners] = 0.0
        if w is not None:
            v = v.dot(w)
    row[0] += v[0]  # W mixes within the instance, which began as agent 0 alone
    return row


def run_cbdiht(problem: Problem, schedule: TvSchedule, l_tv: Optional[float] = None, *,
               stop: StopRule, keep_iterates: bool = True) -> CbDihtRun:
    """Simulate the consensus-based algorithm on a periodic link schedule.

    The outer loop is inexact IHT: agent 0 steps along its consensus estimate
    v_hat of the average local gradient with step constant l_tv, so the
    gradient error is p * v_hat - grad f(x_k).  Every transmitted value is
    counted: N per vector per active link direction per averaging step, 2K
    per INITIATE; one schedule step is one synchronous time step.  The run
    starts at zero and stops when every agent's latest-joined iterate is
    within stop.tol of the ground truth (after 0 outer iterations if the
    start is), or at the budget.
    """
    p, n, k = problem.p, problem.n, problem.k
    if schedule.p != p:
        raise ValueError("schedule and problem disagree on the agent count")
    validate_connectivity_window(schedule)  # raises AssumptionViolation
    if l_tv is None:
        l_tv = default_l_tv(problem)
    elif not 0 < l_tv < np.inf:
        raise ValueError(f"l_tv = {l_tv} must be finite and positive")
    elif l_tv <= (floor := stacked_lipschitz(problem) / p):
        # below it the iterate may diverge, and s_k grows with ||x_k||^2 unbounded
        raise ValueError(f"l_tv = {l_tv} must exceed the stacked constant over p, "
                         f"{floor} (Blumensath & Davies 2009)")
    config = IhtConfig(l=l_tv, k=k, max_iters=stop.max_iters, tol=stop.tol)
    x_star = problem.x_star
    bound = truth_bound(x_star, stop.tol)

    periods = [directed_links(links) for links in schedule.subgraphs]
    a, b = problem.stacked()
    rows = np.diff(problem.offsets, append=problem.m)  # each agent's row count
    w = np.empty((problem.m, 2))  # per row: 2 (A x - b), times agent 0's weight in column 0
    # the iterate each live instance carries; agents that never joined hold the start
    iterates = {-1: np.zeros(n)}
    machine = DiffusiveConsensus(p, 0, np.zeros(0))  # walked only: its coef goes unused
    s_schedule, v_hats, initiated_counts, eps_norms, worst_errors = [], [], [], [], []
    costs = []  # per outer iteration: values, messages, broadcasts, time steps

    def gradient(x):
        # agent 0 opens instance `outer` at x over the slice gradients at x
        outer = len(s_schedule)
        machine.open(outer, 0)
        iterates[outer] = x
        s_k = int(consensus_steps(outer, x))
        s_schedule.append(s_k)

        (sends, initiates, senders, initiators), steps = machine.walk(periods, s_k)
        # a vector costs N values and N broadcasts per sender, an INITIATE 2K
        # (still a message at K=0)
        costs.append((n * sends + 2 * k * initiates, sends + initiates,
                      n * senders + 2 * k * initiators, s_k))  # a step is a time step
        for i in iterates.keys() - set(machine.inst.tolist()):
            del iterates[i]  # no agent holds instance i any more
        support = np.flatnonzero(x)
        w[:, 1] = 2.0 * (a[:, support] @ x[support] - b)
        w[:, 0] = np.repeat(initiator_row(steps, p), rows) * w[:, 1]
        both = a.T @ w  # v_hat = row @ G and grad f(x) = ones @ G
        v_hat = both[:, 0].copy()  # a column view would keep both columns alive
        v_hats.append(v_hat)
        initiated_counts.append(int(np.count_nonzero(machine.inst == outer)))
        eps_norms.append(math.sqrt((d := p * v_hat - both[:, 1]).dot(d)))
        return v_hat

    def worst_error(x):
        # agent 0 holds x, the others the iterate of the instance they last joined
        held = [x] + [iterates[i] for i in set(machine.inst[1:].tolist())]
        worst_errors.append(max(math.sqrt((d := e - x_star).dot(d)) for e in held))
        return worst_errors[-1]

    trace = run_iht(gradient, x_star, config, keep_iterates, worst_error)
    trace.eps_norms = eps_norms
    del worst_errors[0]  # the start's: one record per outer iteration

    metrics = Metrics.from_costs(
        trace.errors_vs_truth[1:], costs,
        extra={"outer_iter": np.arange(len(s_schedule)), "s_k": s_schedule,
               "eps_norm_sq": [e ** 2 for e in eps_norms],  # as Python squares them
               "initiated_count": initiated_counts})
    return CbDihtRun(
        agent1_trace=trace, per_agent_last_iter=machine.inst.tolist(), metrics=metrics,
        s_schedule=s_schedule, v_hats=v_hats, problem=problem, l_tv=l_tv,
        agent1_converged_at=next((i for i, e in enumerate(trace.errors_vs_truth)
                                  if e <= bound), None),
        global_converged_at=trace.converged_at,
        initiated_counts=initiated_counts, worst_errors=worst_errors,
        final_estimates=[trace.final.copy()]
        + [iterates[i].copy() for i in machine.inst[1:].tolist()])


def epsilon_series(run: CbDihtRun) -> np.ndarray:
    """Squared gradient-approximation errors ||p v_hat - grad f(x_k)||^2, one
    per outer iteration, as the run recorded them."""
    return np.square(run.agent1_trace.eps_norms)
