"""Distributed projected-subgradient baseline for minimum-l1 recovery.

Each iteration mixes neighbor estimates with Metropolis weights, takes a
diminishing subgradient step on the l1 norm, and projects back onto the
agent's own measurement-consistency set.  Works on static graphs and on
periodic link schedules.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

import numpy as np

from .consensus import metropolis_weights
from .diht import Metrics
from .graphs import Graph, TvSchedule, static_schedule
from .iht import truth_bound
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


def orthonormal_slices(problem: Problem) -> tuple:
    """Every agent's consistency set, (p, m_max, n) padded rows Q^T and (p, m_max)
    right-hand sides c; LinAlgError names an agent with rank-deficient rows."""
    return padded_slices([AffineProjector(sl, agent=q).orthonormal
                          for q, sl in enumerate(problem.slices)])


@dataclass
class SubgradTrace:
    worst_errors: list = field(default_factory=list)  # max over agents, per curve row
    converged_at: Optional[int] = None
    estimates: Optional[np.ndarray] = None  # final (p, n) stack
    crossed_at: dict = field(default_factory=dict)  # accuracy -> first step within it


def run_subgradient(problem: Problem, graph_or_schedule: Union[Graph, TvSchedule],
                    config: SubgradConfig) -> tuple:
    """Run the baseline as a lockstep batch of one; returns (SubgradTrace, Metrics),
    a row per iteration.  Convergence is declared when every agent's estimate is
    within tol of the ground truth, relative to its norm.  Every iteration each
    agent ships its full estimate to all neighbors present that step."""
    schedule = (static_schedule(graph_or_schedule)
                if isinstance(graph_or_schedule, Graph) else graph_or_schedule)
    if schedule.p != problem.p:
        raise ValueError("network and problem disagree on the agent count")
    return next(run_lockstep([(problem, schedule, orthonormal_slices(problem))],
                             config))


def run_lockstep(members: list, config: SubgradConfig, accuracies=None,
                 every: int = 1) -> Iterator[tuple]:
    """Run B members (problem, schedule, orthonormal_slices(problem)) of one p, n,
    m_max and period in lockstep, each op on a whole stack into a buffer allocated
    once, so that a member's iterates do not depend on its batch; yield each
    (SubgradTrace, Metrics) in order.  A member records its first step within each of
    `accuracies` (default: config.tol), stops within the tightest, its estimate
    frozen, and keeps the worst errors of every `every`-th step and its last."""
    problems, schedules, slices = zip(*members)
    q, c = (np.stack(a) for a in zip(*slices))  # (B, p, m_max, n), (B, p, m_max)
    (b, p, m, n), period = q.shape, schedules[0].period
    w = list(np.stack([[metropolis_weights(links, p) for links in s.subgraphs]
                       for s in schedules], axis=1))  # one (B, p, p) stack per phase
    accuracies = tuple(accuracies or (config.tol,))
    bound = np.array([[truth_bound(pr.x_star, a) for a in accuracies] for pr in problems])
    crossed, hit = np.zeros(bound.shape, dtype=int), np.empty(bound.shape, dtype=bool)
    # x, Q^T y - c and the worst errors, in the shapes of the ops that write them
    x4, r4, worst2 = np.zeros((b, p, 1, n)), np.empty((b, p, m, 1)), np.empty((b, 1))
    x, r, worst = x4[:, :, 0], r4[:, :, :, 0], worst2[:, 0]
    y, d, sq = np.empty((b, p, n)), np.empty((b, p, n)), np.empty((b, p))
    # y and Q^T y - c in the shapes of the products that read them; x and y flat
    y4, rt, xf, yf = y[:, :, :, None], r[:, :, None, :], x4.reshape(-1), y.reshape(-1)
    # x*'s support in each agent's row of the flat (B, p, n) stack, NaN entries
    # included; off it x - x* is x, bit for bit.  y holds x* until the first step
    y[:] = np.stack([pr.x_star for pr in problems])[:, None, :]
    at = np.flatnonzero(y)
    star = yf[at]
    t, stops, kept = 0, {}, []  # kept: the worst errors of every `every`-th step
    while t < config.max_iters and len(stops) < b:
        alpha = (t + 1.0) ** (-config.step_exponent)
        np.matmul(w[t % period], x, out=y)
        np.subtract(y, np.multiply(alpha, np.sign(x, out=d), out=d), out=y)
        np.matmul(q, y4, out=r4)
        np.subtract(r, c, out=r)
        np.matmul(rt, q, out=x4)
        np.subtract(y, x, out=x)
        np.multiply(x, x, out=y)  # (x - x*)**2, patched on x*'s support below
        e = xf[at] - star
        yf[at] = e * e
        np.sqrt(np.maximum.reduce(np.add.reduce(y, axis=2, out=sq), axis=1, out=worst),
                out=worst)
        t += 1
        if not t % every:
            kept += worst.tolist()
        if np.count_nonzero(np.less_equal(worst2, bound, out=hit)):
            crossed[hit], bound[hit] = t, -1.0  # an error is never negative: once each
            for j in np.flatnonzero(hit[:, np.argmin(accuracies)]):
                stops[j] = t, float(worst[j]), x[j].copy()
    for j, s in enumerate(schedules):
        end, last, estimate = stops.get(j, (t, float(worst[j]), x[j].copy()))
        iters = np.append(np.arange(every, end, every), end)  # the kept steps, the last
        errors = kept[j:(len(iters) - 1) * b:b] + [last]  # member j of each kept row
        # per period step: an estimate crosses every link both ways, N values
        # and one message per direction, N broadcasts per agent with a link
        costs = [(2 * len(links) * n, 2 * len(links),
                  len({v for e in links for v in e}) * n, 1) for links in s.subgraphs]
        yield (SubgradTrace(errors, end if j in stops else None, estimate,
                            {a: k for a, k in zip(accuracies, crossed[j].tolist()) if k}),
               Metrics.from_costs(errors, costs, iters=iters))
