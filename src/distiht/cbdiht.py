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

from .consensus import metropolis_matrix
from .diht import Metrics, StopRule
from .graphs import TvSchedule, validate_connectivity_window
from .iht import IhtTrace, NumericFailure, hard_threshold
from .model import Problem, lipschitz_of_slice, loss_gradient, loss_info


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
    return safety * loss_info(problem).lipschitz_global / problem.p


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
    else:
        info = loss_info(problem)
        if l_tv <= info.lipschitz_global / p:
            warnings.warn("l_tv at or below the stacked constant over p: "
                          "convergence is not guaranteed", RuntimeWarning)
    s_fn = s_fn or consensus_steps

    x1 = np.zeros(n) if x_init is None else np.asarray(x_init, dtype=float).copy()
    if np.count_nonzero(x1) > k:
        raise ValueError("x_init is not k-sparse")
    reference = stop.reference_vector(problem)
    ref_norm = float(np.linalg.norm(reference)) if reference is not None else None

    # per period step: each link in both directions, and neighbour lists
    periods = []
    for links in schedule.subgraphs:
        e = np.array(links, dtype=np.intp).reshape(-1, 2)
        src, dst = np.concatenate([e, e[:, ::-1]]).T
        periods.append((src, dst, [dst[src == a].tolist() for a in range(p)]))

    # per-agent protocol state; instance -1 means "never joined anything"
    inst = np.full(p, -1, dtype=int)
    inst[0] = 0
    estimates = [x1.copy() for _ in range(p)]
    values = np.zeros((p, n))
    active = np.zeros((p, p), dtype=bool)  # active[a, q]: a activated its link to q

    trace = IhtTrace()
    trace.iterates.append(x1.copy())
    if reference is not None:
        trace.errors_vs_truth.append(float(np.linalg.norm(x1 - reference)))
    metrics = Metrics()
    run = CbDihtRun(agent1_trace=trace, per_agent_last_iter=[0] + [-1] * (p - 1),
                    metrics=metrics, s_schedule=[], v_hats=[], problem=problem,
                    l_tv=l_tv, k_sparsity=k)

    t_now = 0
    for outer in range(stop.max_iters):
        # slice gradients at the current iterate, shared by agent 0, every
        # joiner of this instance and the eps diagnostic
        grads = [loss_gradient(sl, x1) for sl in problem.slices]
        # agent 0 opens instance `outer`: local gradient, fresh activation
        values[0] = grads[0]
        active[0] = False
        inst[0] = outer
        run.per_agent_last_iter[0] = outer
        s_k = int(s_fn(outer, x1))
        run.s_schedule.append(s_k)

        for _ in range(s_k):
            src, dst, present = periods[t_now % len(periods)]
            t_now += 1
            metrics.time_steps += 1
            live = active[src, dst]

            # averaging among same-instance, mutually active, present pairs
            avg = live & active[dst, src] & (inst[src] == inst[dst])
            if avg.any():
                w, deg = metropolis_matrix(src[avg], dst[avg], p)
                mixed = w @ values
                mixed[deg == 0] = values[deg == 0]  # holders keep their row bit-exact
                values = mixed

            # every joined agent ships its vector on its active present links,
            # whether or not the far end still listens to this instance
            sends = np.bincount(src[live], minlength=p)
            total = int(sends.sum())
            metrics.values_sent += total * n
            metrics.messages_sent += total
            metrics.broadcasts += n * int(np.count_nonzero(sends))

            # INITIATE wave over present, inactive links in agent-index order;
            # an agent that joins during the wave forwards in this step when
            # its index is above the sender's
            pending = np.bincount(src[~live & (inst[src] >= 0)], minlength=p).tolist()
            for a in range(p):
                if not pending[a]:
                    continue
                fresh = [q for q in present[a] if not active[a, q]]
                if not fresh:
                    continue
                metrics.broadcasts += 2 * k
                metrics.values_sent += 2 * k * len(fresh)
                metrics.messages_sent += len(fresh)
                active[a, fresh] = True
                ka = int(inst[a])
                for q in fresh:
                    if ka > inst[q]:
                        # fresher instance: drop old state, copy the iterate,
                        # contribute the local gradient from the next step on
                        inst[q] = ka
                        estimates[q] = estimates[a]  # never written in place
                        values[q] = (grads[q] if ka == outer else
                                     loss_gradient(problem.slices[q], estimates[q]))
                        active[q] = False
                        active[q, a] = True
                        run.per_agent_last_iter[q] = ka
                        pending[q] = True
                    elif ka == inst[q]:
                        active[q, a] = True  # pure link activation
                    # an already-fresher receiver ignores the message

        v_hat = values[0].copy()
        if not np.all(np.isfinite(v_hat)):
            raise NumericFailure(outer, "consensus average")
        run.v_hats.append(v_hat)
        run.initiated_counts.append(int(np.sum(inst == outer)))

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
    run.final_estimates = [e.copy() for e in estimates]
    return run


def epsilon_series(run: CbDihtRun) -> np.ndarray:
    """Squared gradient-approximation errors, recomputed from the record.

    For each outer iteration the exact stacked gradient at the recorded
    iterate is formed from the problem data and compared against p times the
    recorded consensus average.  A run with keep_iterates=False kept only its
    last iterate, so its series is the squared in-loop record instead.
    """
    if len(run.agent1_trace.iterates) <= len(run.v_hats):
        return np.square(run.agent1_trace.eps_norms)
    out = []
    for k, v_hat in enumerate(run.v_hats):
        xk = run.agent1_trace.iterates[k]
        grad = np.zeros(run.problem.n)
        for sl in run.problem.slices:
            grad += loss_gradient(sl, xk)
        eps = run.problem.p * v_hat - grad
        out.append(float(eps @ eps))
    return np.array(out)


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
