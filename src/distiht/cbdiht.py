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
from .iht import IhtTrace, NumericFailure, hard_threshold
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
    global_converged_at: Optional[int] = None
    global_converged_rounds: Optional[int] = None
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

    Every transmitted value is counted: N per vector per active link
    direction per averaging step, 2K per INITIATE.  One schedule step is one
    synchronous time step.  The run stops when every agent's latest-joined
    iterate is within stop.tol of the reference, or at the outer budget.
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

    x1 = np.zeros(n) if x_init is None else np.asarray(x_init, dtype=float).copy()
    if np.count_nonzero(x1) > k:
        raise ValueError("x_init is not k-sparse")
    reference = stop.reference_vector(problem)
    ref_norm = float(np.linalg.norm(reference)) if reference is not None else None

    periods = [directed_links(links, p) for links in schedule.subgraphs]
    estimates = [x1.copy() for _ in range(p)]
    machine = DiffusiveConsensus(p, 0, np.zeros(n))

    trace = IhtTrace()
    trace.iterates.append(x1.copy())
    if reference is not None:
        trace.errors_vs_truth.append(float(np.linalg.norm(x1 - reference)))
    metrics = Metrics()
    run = CbDihtRun(agent1_trace=trace, per_agent_last_iter=[],
                    metrics=metrics, s_schedule=[], v_hats=[], problem=problem,
                    l_tv=l_tv, k_sparsity=k)

    for outer in range(stop.max_iters):
        # slice gradients at the current iterate, shared by agent 0, every
        # joiner of this instance and the eps diagnostic
        grads = [loss_gradient(sl, x1) for sl in problem.slices]
        machine.open(outer, 0, grads[0])
        s_k = int(s_fn(outer, x1))
        run.s_schedule.append(s_k)

        def join(q, a):
            # q copies a's iterate and contributes its local gradient there
            # from the next step on
            estimates[q] = estimates[a]  # never written in place
            if machine.inst[q] == outer:
                return grads[q]
            return loss_gradient(problem.slices[q], estimates[q])

        for _ in range(s_k):
            sends, initiates = machine.step(
                periods[metrics.time_steps % len(periods)], join)
            metrics.time_steps += 1
            # a vector costs N values and N broadcasts per sender, an INITIATE 2K
            for counts, size in ((sends, n), (initiates, 2 * k)):
                total = int(counts.sum())
                metrics.values_sent += size * total
                metrics.messages_sent += total
                metrics.broadcasts += size * int(np.count_nonzero(counts))

        v_hat = machine.values[0].copy()
        if not np.all(np.isfinite(v_hat)):
            raise NumericFailure(outer, "consensus average")
        run.v_hats.append(v_hat)
        run.initiated_counts.append(int(np.sum(machine.inst == outer)))

        eps = p * v_hat - sum(grads, np.zeros(n))
        trace.eps_norms.append(float(np.linalg.norm(eps)))

        x_next = hard_threshold(x1 - v_hat / l_tv, k)
        trace.step_deltas.append(float(np.linalg.norm(x1 - x_next) ** 2))
        step_denom = max(1.0, float(np.linalg.norm(x1)))
        x1 = x_next
        estimates[0] = x1.copy()
        if keep_iterates:
            trace.iterates.append(x1.copy())
        else:
            trace.iterates[-1] = x1.copy()

        err = None
        if reference is not None:
            err = float(np.linalg.norm(x1 - reference))
            trace.errors_vs_truth.append(err)
            if (run.agent1_converged_at is None and stop.tol > 0
                    and err <= stop.tol * max(ref_norm, 1e-300)):
                run.agent1_converged_at = outer + 1
                trace.converged_at = outer + 1
        metrics.snapshot(outer + 1, float("nan") if err is None else err,
                         extra={"outer_iter": outer, "s_k": s_k,
                                "eps_norm_sq": trace.eps_norms[-1] ** 2,
                                "initiated_count": run.initiated_counts[-1]})

        if reference is not None:
            # agents of one instance share their estimate array
            distinct = {id(e): e for e in estimates}.values()
            worst = max(float(np.linalg.norm(e - reference)) for e in distinct)
            run.worst_errors.append(worst)
            if stop.tol > 0 and worst <= stop.tol * max(ref_norm, 1e-300):
                run.global_converged_at = outer + 1
                run.global_converged_rounds = metrics.time_steps
                break
        elif stop.tol > 0:
            if np.sqrt(trace.step_deltas[-1]) / step_denom <= stop.tol:
                trace.converged_at = outer + 1
                break
    run.per_agent_last_iter = machine.inst.tolist()
    run.final_estimates = [e.copy() for e in estimates]
    return run


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
