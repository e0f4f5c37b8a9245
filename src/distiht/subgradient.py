"""Distributed projected-subgradient baseline for minimum-l1 recovery.

Each iteration mixes neighbor estimates with Metropolis weights, takes a
diminishing subgradient step on the l1 norm, and projects back onto the
agent's own measurement-consistency set.  Works on static graphs and on
periodic link schedules.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .consensus import metropolis_weights
from .diht import Metrics
from .graphs import Graph, TvSchedule, static_schedule
from .model import Problem, SensingSlice, padded_slices


@dataclass
class SubgradConfig:
    """Run parameters; the step size at iteration k >= 1 is k**(-step_exponent)."""

    step_exponent: float = 0.7
    max_iters: int = 200_000
    tol: float = 1e-2

    def __post_init__(self):
        # square-summable but not summable requires an exponent in (0.5, 1]
        if not (0.5 < self.step_exponent <= 1.0):
            raise ValueError(f"step_exponent {self.step_exponent:g} must lie in (0.5, 1]")
        if self.max_iters < 1:
            raise ValueError(f"max_iters {self.max_iters} must be at least 1")


class AffineProjector:
    """One slice's consistency set {x : a x = b}, with a^T = Q R factored once.

    The set is also {x : Q^T x = c} for c = R^-T b.  That orthonormal form
    is held as a slice, and the projection onto the set is x - Q (Q^T x - c).
    """

    def __init__(self, sl: SensingSlice, agent: Optional[int] = None):
        gram = sl.a @ sl.a.T
        eigs = np.linalg.eigvalsh(gram)
        if eigs[0] <= 0 or eigs[-1] / eigs[0] > 1e12:
            raise np.linalg.LinAlgError(
                f"rank-deficient measurement rows at agent {agent}")
        q, r = np.linalg.qr(sl.a.T)
        self.orthonormal = SensingSlice(q.T, np.linalg.solve(r.T, sl.b))


@dataclass
class SubgradTrace:
    worst_errors: list = field(default_factory=list)  # max over agents, per iter
    converged_at: Optional[int] = None
    estimates: Optional[np.ndarray] = None  # final (p, n) stack


def run_subgradient(problem: Problem, graph_or_schedule: Union[Graph, TvSchedule],
                    config: Optional[SubgradConfig] = None) -> tuple:
    """Run the baseline; returns (SubgradTrace, Metrics).

    Convergence is declared when every agent's estimate is within tol of the
    ground truth, relative to its norm.  Every iteration each agent ships its
    full estimate to all neighbors present that step, which dominates the
    value count.  The traffic of an iteration depends only on its step of
    the period, so the counters are filled in after the run from one row per
    period step.
    """
    config = config or SubgradConfig()
    schedule = (static_schedule(graph_or_schedule)
                if isinstance(graph_or_schedule, Graph) else graph_or_schedule)
    if schedule.p != problem.p:
        raise ValueError("network and problem disagree on the agent count")
    ref = problem.x_star
    ref_norm = max(float(np.linalg.norm(ref)), 1e-300)

    p, n = problem.p, problem.n
    # every agent projects in one batch, through its slice's orthonormal form
    q_stack, c_stack = padded_slices([AffineProjector(sl, agent=q).orthonormal
                                      for q, sl in enumerate(problem.slices)])
    weights = [metropolis_weights(links, p).w for links in schedule.subgraphs]
    # per period step: an estimate crosses every link both ways, N values and
    # one message per direction, N broadcasts per agent with a link
    costs = np.array([(2 * len(links) * n, 2 * len(links),
                       len({v for e in links for v in e}) * n, 1)
                      for links in schedule.subgraphs], dtype=np.int64)
    x = np.zeros((p, n))
    trace = SubgradTrace()

    for t in range(config.max_iters):
        alpha = (t + 1.0) ** (-config.step_exponent)
        y = weights[t % schedule.period] @ x - alpha * np.sign(x)
        r = np.matmul(q_stack, y[:, :, None])[:, :, 0] - c_stack  # Q^T y - c
        x = y - np.matmul(r[:, None, :], q_stack)[:, 0, :]

        diffs = x - ref
        worst = float(np.sqrt((diffs * diffs).sum(axis=1).max()))
        trace.worst_errors.append(worst)
        if worst <= config.tol * ref_norm:
            trace.converged_at = t + 1
            break

    trace.estimates = x
    steps = np.arange(len(trace.worst_errors)) % schedule.period
    return trace, Metrics.from_costs(trace.worst_errors, costs[steps])
