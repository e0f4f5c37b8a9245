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

BLOCK = 4096  # steps of worst errors a lockstep batch allocates at a time


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
    worst_errors: list = field(default_factory=list)  # max over agents, per iter
    converged_at: Optional[int] = None
    estimates: Optional[np.ndarray] = None  # final (p, n) stack


def run_subgradient(problem: Problem, graph_or_schedule: Union[Graph, TvSchedule],
                    config: SubgradConfig) -> tuple:
    """Run the baseline as a lockstep batch of one; returns (SubgradTrace, Metrics).

    Convergence is declared when every agent's estimate is within tol of the
    ground truth, relative to its norm.  Every iteration each agent ships its
    full estimate to all neighbors present that step, which dominates the
    value count.  The traffic of an iteration depends only on its step of
    the period, so the counters are filled in after the run from one row per
    period step.
    """
    schedule = (static_schedule(graph_or_schedule)
                if isinstance(graph_or_schedule, Graph) else graph_or_schedule)
    if schedule.p != problem.p:
        raise ValueError("network and problem disagree on the agent count")
    return next(run_lockstep([(problem, schedule, orthonormal_slices(problem))],
                             config))


def run_lockstep(members: list, config: SubgradConfig) -> Iterator[tuple]:
    """Run B members (problem, schedule, orthonormal_slices(problem)) of one p, n,
    m_max and period in lockstep, every op into a buffer allocated once, so that
    a member's iterates do not depend on its batch; yield each (SubgradTrace,
    Metrics) in order.  A member within tol stops there, its estimate frozen."""
    problems, schedules, slices = zip(*members)
    q, c = (np.stack(a) for a in zip(*slices))  # (B, p, m_max, n), (B, p, m_max)
    (b, p, m, n), period = q.shape, schedules[0].period
    w = np.stack([[metropolis_weights(links, p) for links in s.subgraphs]
                  for s in schedules], axis=1)  # one (B, p, p) stack per phase
    ref = np.stack([pr.x_star for pr in problems])[:, None, :]
    bound = np.array([truth_bound(pr.x_star, config.tol) for pr in problems])
    # x and Q^T y - c are held in the shapes of the products that write them
    x4, r4 = np.zeros((b, p, 1, n)), np.empty((b, p, m, 1))
    x, r = x4[:, :, 0], r4[:, :, :, 0]
    y, d, sq = np.empty((b, p, n)), np.empty((b, p, n)), np.empty((b, p))
    t, converged, frozen, hit, blocks = 0, [None] * b, {}, np.empty(b, dtype=bool), []
    while t < config.max_iters and len(frozen) < b:
        if not t % BLOCK:  # the worst errors by step, a block at a time
            blocks.append(np.empty((BLOCK, b)))
        worst = blocks[-1][t % BLOCK]
        alpha = (t + 1.0) ** (-config.step_exponent)
        np.matmul(w[t % period], x, out=y)
        np.subtract(y, np.multiply(alpha, np.sign(x, out=d), out=d), out=y)
        np.matmul(q, y[:, :, :, None], out=r4)
        np.subtract(r, c, out=r)
        np.matmul(r[:, :, None, :], q, out=x4)
        np.subtract(y, x, out=x)
        np.multiply(np.subtract(x, ref, out=d), d, out=d)
        np.sqrt(np.maximum.reduce(np.add.reduce(d, axis=2, out=sq), axis=1, out=worst),
                out=worst)
        t += 1
        if np.count_nonzero(np.less_equal(worst, bound, out=hit)):
            for j in np.flatnonzero(hit):
                converged[j], frozen[j] = t, x[j].copy()
                bound[j] = -1.0  # an error is never negative: j stays stopped
    for j, s in enumerate(schedules):
        # per period step: an estimate crosses every link both ways, N values
        # and one message per direction, N broadcasts per agent with a link
        costs = np.array([(2 * len(links) * n, 2 * len(links),
                           len({v for e in links for v in e}) * n, 1)
                          for links in s.subgraphs], dtype=np.int64)
        errors = np.concatenate([blk[:, j] for blk in blocks])[:converged[j] or t].tolist()
        yield (SubgradTrace(errors, converged[j], frozen.get(j, x[j]).copy()),
               Metrics.from_costs(errors, costs[np.arange(len(errors)) % period]))
        del errors  # no member's curve is held while the next one is built
