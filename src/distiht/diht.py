"""Distributed IHT on a static network via spanning-tree broadcast/convergecast.

Each iteration pushes the current sparse iterate down a BFS tree (2K values
per edge), lets every agent evaluate its local gradient, and aggregates the
gradient sum back up (N values per edge).  Transmitted values, messages,
broadcasts, and synchronous time steps are counted exactly.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .graphs import Graph, SpanningTree, bfs_spanning_tree
from .iht import IhtConfig, IhtTrace, run_iht, write_csv
from .iht import hard_threshold  # noqa: F401  rebound by perfbench's traced pass
from .model import Problem, stacked_lipschitz, support_gradient
from .model import loss_gradient, loss_info  # noqa: F401  rebound by perfbench


METRICS_COLUMNS = ["iter", "err", "values_cum", "messages_cum",
                   "broadcasts_cum", "time_steps_cum"]


@dataclass(eq=False)
class Metrics:
    """A run's traffic and time accounting: the four totals, its curve (one array
    per column, an entry per recorded iteration) and its closed form `counters`."""

    values_sent: int = 0
    messages_sent: int = 0
    broadcasts: int = 0
    time_steps: int = 0
    columns: dict = field(default_factory=dict)  # name -> 1-D array
    # row r: the four counters after the start and the period's first r cost rows
    prefix: np.ndarray = field(default_factory=lambda: np.zeros((1, 4), dtype=np.int64))

    @classmethod
    def from_costs(cls, errors, costs, start=(0, 0, 0, 0), extra=None, iters=None):
        """The accounting kernel: the error at each recorded iteration `iters` (by
        default 1, 2, ...; the last is the run's), and P cost rows, iteration t
        spending row (t - 1) % P on top of `start` (no rows: nothing)."""
        rows = np.vstack([start, np.asarray(costs, np.int64).reshape(-1, 4)])
        kernel = cls(prefix=np.cumsum(rows, axis=0))
        iters = np.arange(1, len(errors) + 1) if iters is None else np.asarray(iters)
        cum = kernel.counters(np.append(0, iters))  # iteration 0 spent only start
        columns = dict(zip(METRICS_COLUMNS, [iters, np.asarray(errors, float), *cum[1:].T]))
        columns.update((name, np.asarray(v)) for name, v in (extra or {}).items())
        return cls(*cum[-1].tolist(), columns, kernel.prefix)

    def counters(self, t):
        """The four totals at the end of iteration t, or of each one in an array
        t: the start, whole periods, then the next one's first t % P rows."""
        periods, rest = np.divmod(t, max(len(self.prefix) - 1, 1))
        return self.prefix[rest] + np.multiply.outer(periods, self.prefix[-1] - self.prefix[0])

    @property
    def totals(self) -> tuple:
        return (self.values_sent, self.messages_sent, self.broadcasts, self.time_steps)

    @property
    def per_iteration(self) -> list:
        """The columns as one dict of plain Python scalars per row (a copy)."""
        rows = zip(*(c.tolist() for c in self.columns.values()))
        return [dict(zip(self.columns, row)) for row in rows]

    def __eq__(self, other):
        return (isinstance(other, Metrics) and self.totals == other.totals
                and list(self.columns) == list(other.columns)
                and all(np.array_equal(c, other.columns[name], equal_nan=True)
                        for name, c in self.columns.items()))


def write_metrics_csv(metrics: Metrics, path: str, extra_columns=()) -> None:
    cols = METRICS_COLUMNS + list(extra_columns)
    write_csv(path, cols, columns=[metrics.columns[c] for c in cols])


@dataclass
class StopRule:
    """When to end a run: error relative to the ground truth within tol
    (never when tol <= 0), or max_iters iterations spent."""

    tol: float = 1e-2
    max_iters: int = 200_000


def _tree_sum(tree: SpanningTree, vectors) -> np.ndarray:
    """Leaf-to-root aggregation: each vertex adds its children's partial sums.

    The rows of a float (p, n) array are summed in place, deepest vertices
    first; any other sequence of vectors is copied into such an array.
    """
    rows = list(np.asarray(vectors, dtype=float))
    for v in sorted(range(tree.p), key=tree.depth.__getitem__, reverse=True):
        for c in tree.children[v]:
            rows[v] += rows[c]
    return rows[tree.root]


def _tree_traffic(tree: SpanningTree, down: Optional[int], up: int) -> tuple:
    """(values, messages, broadcasts, time steps) of sending `down` values
    down every tree edge (None: no down sweep), then `up` values up every
    edge, each sweep taking the tree's height in steps; vertices with children
    broadcast the down values, and every non-root its up values.  A down
    sweep of 0 values (DIHT at K=0) is still sent, p-1 messages and one
    height: it is what starts an iteration."""
    edges, sweeps, down = tree.p - 1, 1 if down is None else 2, down or 0
    nonleaf = sum(1 for c in tree.children if c)
    return (edges * (down + up), sweeps * edges, nonleaf * down + edges * up,
            sweeps * tree.height)


def convergecast_sum(tree: SpanningTree, per_agent_vectors) -> tuple:
    """Sum one vector per agent up the tree; returns (total, Metrics delta)."""
    vectors = [np.asarray(v, dtype=float) for v in per_agent_vectors]
    if len(vectors) != tree.p:
        raise ValueError("need exactly one vector per agent")
    total = _tree_sum(tree, vectors)
    return total, Metrics(*_tree_traffic(tree, None, vectors[0].shape[0]))


@dataclass
class DihtRun:
    tree: SpanningTree
    agent_estimates: list
    metrics: Metrics
    trace: IhtTrace
    l: float


SAFETY = 1.005  # every default step constant runs this far above its bound


def default_step_constant(problem: Problem) -> float:
    """The run_diht default: SAFETY times the stacked smoothness constant."""
    return SAFETY * stacked_lipschitz(problem)


def run_diht(problem: Problem, graph: Graph, l: Optional[float] = None, *,
             stop: StopRule, keep_iterates: bool = True) -> DihtRun:
    """Simulate distributed IHT rooted at agent 0 on a static graph.

    The iteration is the problem's iht_trajectory, shared by all its graphs: its
    gradient is the tree sum of the agents' gradients at the K broadcast pairs,
    to rounding, and each iteration costs this tree the same one cost row.  It
    starts at zero, and stops at 0 iterations if that start meets the tolerance.

    With l unset, the step constant defaults to SAFETY (1.005) times the stacked
    gradient smoothness constant, mirroring the usual practice of running
    just above the tightest known bound.  A user-supplied l at or below the
    stacked constant is accepted with a warning since descent is then not
    guaranteed.
    """
    if graph.p != problem.p:
        raise ValueError("graph and problem disagree on the agent count")
    if not graph.is_connected():
        raise ValueError("graph must be connected")
    if l is None:
        l = default_step_constant(problem)
    elif not 0 < l < np.inf:
        raise ValueError(f"l = {l} must be finite and positive")
    elif l <= stacked_lipschitz(problem):
        warnings.warn("l below the stacked Lipschitz constant: descent is "
                      "not guaranteed", RuntimeWarning)

    tree = bfs_spanning_tree(graph, root=0)
    trace, (x, support) = iht_trajectory(problem, l, stop, keep_iterates)
    cost = _tree_traffic(tree, 2 * problem.k, problem.n)
    metrics = Metrics.from_costs(trace.errors_vs_truth[1:], [cost],
                                 start=(0, tree.build_messages, 0, 0))  # the tree build

    estimates = np.zeros((problem.p, problem.n))  # row q: agent q's decoded copy
    estimates[:, support] = x[support]
    return DihtRun(tree=tree, agent_estimates=list(estimates), metrics=metrics,
                   trace=trace, l=l)


def iht_trajectory(problem: Problem, l: float, stop: StopRule,
                   keep_iterates: bool) -> tuple[IhtTrace, tuple]:
    """Centralized IHT from zero, its gradient from cached columns of 2 A^T A
    (model.support_gradient), and the last (x, indices) pairs broadcast: x at its
    first k nonzeros.  No network enters it, so the problem keeps the last one
    asked, which a repeat call returns: the trace's lists are the caller's own,
    its arrays read-only.  A run that raises keeps nothing."""
    key = (l, stop.tol, stop.max_iters, keep_iterates)
    if problem._trajectory is None or problem._trajectory[0] != key:
        config = IhtConfig(l=l, k=problem.k, max_iters=stop.max_iters, tol=stop.tol)
        tree_gradient = support_gradient(problem)  # the convergecast's sum, to rounding
        sent = [np.zeros(problem.n), np.zeros(0, int)]

        def gradient(x):
            sent[:] = x, np.flatnonzero(x)[:config.k]
            return tree_gradient(x, sent[1])

        trace = run_iht(gradient, problem.x_star, config, keep_iterates)
        for array in trace.iterates + sent:
            array.flags.writeable = False
        problem._trajectory = key, trace, tuple(sent)
    _, trace, sent = problem._trajectory
    return replace(trace, **{name: list(v) for name, v in vars(trace).items()
                             if isinstance(v, list)}), sent

