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
from .iht import IhtConfig, IhtTrace, _run
from .iht import hard_threshold  # noqa: F401  rebound by perfbench's traced pass
from .model import (Problem, batched_gradients, lipschitz_of_slice, padded_slices,
                    stacked_lipschitz)
from .model import loss_gradient  # noqa: F401  rebound by perfbench's traced pass
from .model import loss_info  # noqa: F401  rebound by perfbench's traced pass


METRICS_COLUMNS = ["iter", "err", "values_cum", "messages_cum",
                   "broadcasts_cum", "time_steps_cum"]


@dataclass(eq=False)
class Metrics:
    """Traffic and time accounting for one simulated run: the four totals,
    and one array per column with an entry per recorded iteration (the
    METRICS_COLUMNS, then any extra columns).  Equality compares values."""

    values_sent: int = 0
    messages_sent: int = 0
    broadcasts: int = 0
    time_steps: int = 0
    columns: dict = field(default_factory=dict)  # name -> 1-D array

    @classmethod
    def from_costs(cls, errors, costs, start=(0, 0, 0, 0), extra=None) -> "Metrics":
        """The accounting kernel: the error after each iteration (None: not
        measured) and a (T, 4) array of what each iteration cost (values,
        messages, broadcasts, time steps) on top of what `start` spent."""
        costs = np.asarray(costs, dtype=np.int64).reshape(-1, 4)
        cum = np.cumsum(np.vstack([start, costs]), axis=0)
        t = len(costs)
        columns = {"iter": np.arange(1, t + 1),
                   "err": np.full(t, np.nan) if errors is None
                   else np.asarray(errors, dtype=float)}
        columns.update(zip(METRICS_COLUMNS[2:], cum[1:].T))
        columns.update((name, np.asarray(v)) for name, v in (extra or {}).items())
        return cls(*cum[-1].tolist(), columns=columns)

    @property
    def totals(self) -> tuple:
        return (self.values_sent, self.messages_sent, self.broadcasts, self.time_steps)

    @property
    def per_iteration(self) -> list:
        """The columns as one dict of plain Python scalars per row (a copy)."""
        rows = zip(*(c.tolist() for c in self.columns.values()))
        return [dict(zip(self.columns, row)) for row in rows]

    def thin(self, every: int) -> "Metrics":
        """The same run with only every `every`-th row and the last kept."""
        keep = self.columns["iter"] % every == 0
        keep[-1:] = True
        return replace(self, columns={name: c[keep] for name, c in self.columns.items()})

    def __eq__(self, other):
        return (isinstance(other, Metrics) and self.totals == other.totals
                and list(self.columns) == list(other.columns)
                and all(np.array_equal(c, other.columns[name], equal_nan=True)
                        for name, c in self.columns.items()))


def write_metrics_csv(metrics: Metrics, path: str, extra_columns=()) -> None:
    cols = METRICS_COLUMNS + list(extra_columns)
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in metrics.per_iteration:
            cells = (row.get(c, "") for c in cols)
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in cells) + "\n")


@dataclass
class StopRule:
    """When to end a run: relative error vs a reference, or budget.

    reference is "truth" (the instance's ground truth), "self" (stop on the
    relative iterate change instead), or an explicit vector.
    """

    tol: float = 1e-2
    max_iters: int = 200_000
    reference: object = "truth"

    def reference_vector(self, problem: Problem) -> Optional[np.ndarray]:
        if isinstance(self.reference, str):
            if self.reference == "truth":
                return problem.x_star
            if self.reference == "self":
                return None
            raise ValueError(f"unknown reference {self.reference!r}")
        return np.asarray(self.reference, dtype=float)


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


def _path_delay(tree: SpanningTree, delays) -> int:
    """Worst root-to-vertex delay; equals the tree height under unit delays."""
    if delays is None:
        return tree.height
    dist = [0] * tree.p
    for v in sorted(range(tree.p), key=tree.depth.__getitem__):  # parents first
        u = tree.parent[v]
        if u is not None:
            dist[v] = dist[u] + int(delays.get((min(u, v), max(u, v)), 1))
    return max(dist)


def convergecast_sum(tree: SpanningTree, per_agent_vectors) -> tuple:
    """Sum one vector per agent up the tree; returns (total, Metrics delta)."""
    vectors = [np.asarray(v, dtype=float) for v in per_agent_vectors]
    if len(vectors) != tree.p:
        raise ValueError("need exactly one vector per agent")
    n = vectors[0].shape[0]
    total = _tree_sum(tree, vectors)
    return total, Metrics((tree.p - 1) * n, tree.p - 1, (tree.p - 1) * n, tree.height)


def aggregate_lipschitz(tree: SpanningTree, per_agent_lipschitz) -> tuple:
    """Tree sum of the per-agent smoothness constants; a valid global bound.

    One request value travels down each edge and one scalar partial sum
    comes back up.
    """
    vals = [float(v) for v in per_agent_lipschitz]
    if len(vals) != tree.p:
        raise ValueError("need exactly one constant per agent")
    total = float(_tree_sum(tree, [np.array([v]) for v in vals])[0])
    nonleaf = sum(1 for v in range(tree.p) if tree.children[v])
    return total, Metrics(2 * (tree.p - 1), 2 * (tree.p - 1), nonleaf + (tree.p - 1),
                          2 * tree.height)


@dataclass
class DihtRun:
    tree: SpanningTree
    agent_estimates: list
    metrics: Metrics
    trace: IhtTrace
    coherence: list  # max over agents of |x_p - x_1| at each broadcast
    l: float


def default_step_constant(problem: Problem, safety: float = 1.005) -> float:
    """The run_diht default: safety times the stacked smoothness constant."""
    return safety * stacked_lipschitz(problem)


def run_diht(problem: Problem, graph: Graph, l: Optional[float] = None,
             k_sparsity: Optional[int] = None, stop: Optional[StopRule] = None,
             x_init: Optional[np.ndarray] = None, delays: Optional[dict] = None,
             keep_iterates: bool = True) -> DihtRun:
    """Simulate distributed IHT rooted at agent 0 on a static graph.

    The iteration is centralized IHT whose gradient is the tree sum of the
    agents' local gradients; the traffic of every iteration is the same
    closed form, so the counters are filled in after the run.  A run whose
    starting point already meets the tolerance stops at 0 iterations.

    With l unset, the step constant defaults to 1.005 times the stacked
    gradient smoothness constant, mirroring the usual practice of running
    just above the tightest known bound.  A user-supplied l at or below the
    stacked constant is accepted with a warning since descent is then not
    guaranteed.
    """
    if graph.p != problem.p:
        raise ValueError("graph and problem disagree on the agent count")
    if not graph.is_connected():
        raise ValueError("graph must be connected")
    k = problem.k if k_sparsity is None else k_sparsity
    stop = stop or StopRule()
    if l is None:
        l = default_step_constant(problem)
    elif l <= 0:
        raise ValueError("l must be positive")
    elif l <= stacked_lipschitz(problem):
        warnings.warn("l below the stacked Lipschitz constant: descent is "
                      "not guaranteed", RuntimeWarning)

    tree = bfs_spanning_tree(graph, root=0)
    x0 = np.zeros(problem.n) if x_init is None else np.asarray(x_init, dtype=float)
    a, b = padded_slices(problem)
    estimates = np.tile(x0, (problem.p, 1))  # row q: agent q's copy of the iterate
    coherence = []

    def gradient(x):
        # broadcast phase: the iterate travels down the tree as at most k
        # (index, value) pairs, and every agent decodes them into its row;
        # convergecast phase: the agents' gradients at their rows are
        # summed toward the root
        support = np.flatnonzero(x)[:k]
        estimates.fill(0.0)
        estimates[:, support] = x[support]
        coherence.append(float(np.max(np.abs(estimates - x), initial=0.0)))
        return _tree_sum(tree, batched_gradients(a, b, estimates))

    config = IhtConfig(l=l, k=k, max_iters=stop.max_iters, tol=stop.tol, x_init=x0)
    trace = _run(gradient, None, stop.reference_vector(problem), config, None,
                 keep_iterates=keep_iterates)

    nonleaf = sum(1 for v in range(tree.p) if tree.children[v])
    up_values = (problem.p - 1) * problem.n
    cost = ((problem.p - 1) * 2 * k + up_values, 2 * (problem.p - 1),
            2 * k * nonleaf + up_values, 2 * _path_delay(tree, delays))
    metrics = Metrics.from_costs(trace.errors_vs_truth[1:] or None,
                                 [cost] * len(trace.step_deltas),
                                 start=(0, tree.build_messages, 0, 0))  # the tree build

    return DihtRun(tree=tree, agent_estimates=list(estimates), metrics=metrics,
                   trace=trace, coherence=coherence, l=l)


def distributed_step_constant(problem: Problem, tree: SpanningTree,
                              safety: float = 1.005) -> tuple:
    """Step constant an actual deployment could compute: the tree-aggregated
    sum of per-agent constants, scaled by the safety factor."""
    per_agent = [lipschitz_of_slice(s) for s in problem.slices]
    total, delta = aggregate_lipschitz(tree, per_agent)
    return safety * total, delta
