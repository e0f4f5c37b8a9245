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
from .model import Problem, SensingSlice


@dataclass
class SubgradConfig:
    """Run parameters; the step size at iteration k >= 1 is k**(-step_exponent)."""

    step_exponent: float = 0.7
    max_iters: int = 200_000
    tol: float = 1e-2

    def __post_init__(self):
        # square-summable but not summable requires an exponent in (0.5, 1]
        if not (0.5 < self.step_exponent <= 1.0):
            raise ValueError("step_exponent must lie in (0.5, 1]")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


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


def affine_projection(sl: SensingSlice, x: np.ndarray) -> np.ndarray:
    """One-off projection of x onto the slice's consistency set."""
    return AffineProjector(sl)(np.asarray(x, dtype=float))


@dataclass
class SubgradTrace:
    worst_errors: list = field(default_factory=list)  # max over agents, per iter
    converged_at: Optional[int] = None
    estimates: Optional[np.ndarray] = None  # final (p, n) stack


def run_subgradient(problem: Problem, graph_or_schedule: Union[Graph, TvSchedule],
                    config: Optional[SubgradConfig] = None,
                    reference: Optional[np.ndarray] = None) -> tuple:
    """Run the baseline; returns (SubgradTrace, Metrics).

    Convergence is declared when every agent's estimate is within tol of the
    reference (the ground truth unless overridden), relative to its norm.
    Every iteration each agent ships its full estimate to all neighbors
    present that step, which dominates the value count.  The traffic of an
    iteration depends only on its step of the period, so the counters are
    filled in after the run from one row per period step.
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

    weights = {}  # period step -> Metropolis weights
    costs = np.zeros((schedule.period, 4), dtype=np.int64)  # per period step
    for t in range(config.max_iters):
        key = t % schedule.period
        if key not in weights:
            links = schedule.edges_at(t)
            weights[key] = metropolis_weights(links, p).w
            # an estimate crosses every link both ways: N values and one
            # message per direction, N broadcasts per agent with a link
            senders = len({v for e in links for v in e})
            costs[key] = (2 * len(links) * n, 2 * len(links), senders * n, 1)

        u = weights[key] @ x
        alpha = (t + 1.0) ** (-config.step_exponent)
        y = u - alpha * np.sign(x)
        if uniform:
            resid = np.einsum("pmn,pn->pm", a_stack, y) - b_stack
            x = y - np.einsum("pnm,pm->pn", proj_stack, resid)
        else:
            for q in range(p):
                x[q] = projectors[q](y[q])

        diffs = x - ref
        worst = float(np.sqrt((diffs * diffs).sum(axis=1).max()))
        trace.worst_errors.append(worst)
        if worst <= config.tol * ref_norm:
            trace.converged_at = t + 1
            break

    trace.estimates = x
    steps = np.arange(len(trace.worst_errors)) % schedule.period
    return trace, Metrics.from_costs(trace.worst_errors, costs[steps])
