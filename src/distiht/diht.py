"""Distributed IHT on a static network via spanning-tree broadcast/convergecast.

Each iteration pushes the current sparse iterate down a BFS tree (2K values
per edge), lets every agent evaluate its local gradient, and aggregates the
gradient sum back up (N values per edge).  Transmitted values, messages,
broadcasts, and synchronous time steps are counted exactly.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .graphs import Graph, SpanningTree, bfs_spanning_tree
from .iht import IhtConfig, IhtTrace, _run
from .iht import hard_threshold  # noqa: F401  rebound by perfbench's traced pass
from .model import (Problem, batched_gradients, lipschitz_of_slice, padded_slices,
                    stacked_lipschitz)
from .model import loss_gradient  # noqa: F401  rebound by perfbench's traced pass
from .model import loss_info  # noqa: F401  rebound by perfbench's traced pass


@dataclass
class Metrics:
    """Cumulative traffic and time accounting for one simulated run."""

    values_sent: int = 0
    messages_sent: int = 0
    broadcasts: int = 0
    time_steps: int = 0
    per_iteration: list = field(default_factory=list)  # cumulative snapshots

    def snapshot(self, iteration: int, err: float, extra: Optional[dict] = None):
        row = {"iter": iteration, "err": err, "values_cum": self.values_sent,
               "messages_cum": self.messages_sent, "broadcasts_cum": self.broadcasts,
               "time_steps_cum": self.time_steps}
        if extra:
            row.update(extra)
        self.per_iteration.append(row)


METRICS_COLUMNS = ["iter", "err", "values_cum", "messages_cum",
                   "broadcasts_cum", "time_steps_cum"]


def write_metrics_csv(metrics: Metrics, path: str, extra_columns=()) -> None:
    cols = METRICS_COLUMNS + list(extra_columns)
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in metrics.per_iteration:
            cells = []
            for c in cols:
                v = row.get(c, "")
                cells.append(f"{v:.17g}" if isinstance(v, float) else str(v))
            fh.write(",".join(cells) + "\n")


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
    best = 0
    dist = [0] * tree.p
    # accumulate along BFS order so parents are resolved first
    order = sorted(range(tree.p), key=lambda v: tree.depth[v])
    for v in order:
        u = tree.parent[v]
        if u is None:
            continue
        e = (min(u, v), max(u, v))
        dist[v] = dist[u] + int(delays.get(e, 1))
        best = max(best, dist[v])
    return best


def convergecast_sum(tree: SpanningTree, per_agent_vectors) -> tuple:
    """Sum one vector per agent up the tree; returns (total, Metrics delta)."""
    vectors = [np.asarray(v, dtype=float) for v in per_agent_vectors]
    if len(vectors) != tree.p:
        raise ValueError("need exactly one vector per agent")
    n = vectors[0].shape[0]
    total = _tree_sum(tree, vectors)
    delta = Metrics()
    delta.values_sent = (tree.p - 1) * n
    delta.messages_sent = tree.p - 1
    delta.broadcasts = (tree.p - 1) * n
    delta.time_steps = tree.height
    return total, delta


def aggregate_lipschitz(tree: SpanningTree, per_agent_lipschitz) -> tuple:
    """Tree sum of the per-agent smoothness constants; a valid global bound.

    One request value travels down each edge and one scalar partial sum
    comes back up.
    """
    vals = [float(v) for v in per_agent_lipschitz]
    if len(vals) != tree.p:
        raise ValueError("need exactly one constant per agent")
    total = float(_tree_sum(tree, [np.array([v]) for v in vals])[0])
    delta = Metrics()
    delta.values_sent = 2 * (tree.p - 1)
    delta.messages_sent = 2 * (tree.p - 1)
    nonleaf = sum(1 for v in range(tree.p) if tree.children[v])
    delta.broadcasts = nonleaf + (tree.p - 1)
    delta.time_steps = 2 * tree.height
    return total, delta


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

    metrics = Metrics()
    metrics.messages_sent += tree.build_messages  # construction, control only
    nonleaf = sum(1 for v in range(tree.p) if tree.children[v])
    down_values = (problem.p - 1) * 2 * k
    up_values = (problem.p - 1) * problem.n
    iter_time = 2 * _path_delay(tree, delays)
    errors = trace.errors_vs_truth
    for it in range(1, len(trace.step_deltas) + 1):
        metrics.values_sent += down_values + up_values
        metrics.messages_sent += 2 * (problem.p - 1)
        metrics.broadcasts += 2 * k * nonleaf + up_values
        metrics.time_steps += iter_time
        metrics.snapshot(it, errors[it] if errors else float("nan"))

    return DihtRun(tree=tree, agent_estimates=list(estimates), metrics=metrics,
                   trace=trace, coherence=coherence, l=l)


def distributed_step_constant(problem: Problem, tree: SpanningTree,
                              safety: float = 1.005) -> tuple:
    """Step constant an actual deployment could compute: the tree-aggregated
    sum of per-agent constants, scaled by the safety factor."""
    per_agent = [lipschitz_of_slice(s) for s in problem.slices]
    total, delta = aggregate_lipschitz(tree, per_agent)
    return safety * total, delta
