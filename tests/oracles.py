"""Reference code that only the tests call: hard thresholding by a stable
sort, the brute-force spark oracle that validates test instances, the
per-iteration descent-gap inequality, max-consensus flooding over a
schedule, neighbour lists by one scan per agent, the subgradient
baseline's one-run loop, the per-cell experiment grid, and the row-wise
curve writer."""
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Union

import numpy as np

from distiht.consensus import _directed, metropolis_weights
from distiht.diht import METRICS_COLUMNS, Metrics
from distiht.graphs import AssumptionViolation, Graph, TvSchedule, static_schedule
from distiht.harness import ExperimentConfig, Report, RunCell, run_cell
from distiht.iht import NumericFailure, write_csv
from distiht.model import Problem, generate_problem, padded_slices
from distiht.subgradient import AffineProjector, SubgradConfig, SubgradTrace


def argsort_hard_threshold(v: np.ndarray, k: int) -> np.ndarray:
    """Zero all but the k largest-magnitude entries of v.

    Ties are broken toward the lowest index so that repeated runs and
    distributed replicas agree bit for bit.
    """
    v = np.asarray(v, dtype=float)
    if k < 0 or k > v.size:
        raise ValueError(f"sparsity {k} out of range for dimension {v.size}")
    out = np.zeros_like(v)
    if k == 0:
        return out
    keep = np.argsort(-np.abs(v), kind="stable")[:k]
    out[keep] = v[keep]
    return out


def descent_gap_check(f_vals: tuple, delta: np.ndarray, eps_k, l: float,
                      l_f: float, slack: float = 1e-9) -> bool:
    """Per-iteration sufficient-decrease inequality for l > l_f.

    f(x^k) - f(x^{k+1}) must be at least ((l - l_f)/2) ||delta||^2 minus the
    error cross term delta^T eps, within an absolute roundoff slack.
    """
    f_curr, f_next = f_vals
    delta = np.asarray(delta, dtype=float)
    cross = float(delta @ np.asarray(eps_k, dtype=float)) if eps_k is not None else 0.0
    lhs = f_curr - f_next
    rhs = 0.5 * (l - l_f) * float(delta @ delta) - cross
    return lhs >= rhs - slack


@dataclass
class SparkResult:
    """Exact spark when `exact`, otherwise the certified lower bound `value`."""

    value: int
    exact: bool

    def __str__(self):
        return str(self.value) if self.exact else f">= {self.value}"


def spark_bruteforce(a: np.ndarray, max_cols: int) -> SparkResult:
    """Smallest number of linearly dependent columns, by subset enumeration.

    Desk-scale oracle: every subset of up to max_cols columns is rank-tested.
    If none is dependent the result is the bound "spark >= max_cols + 1",
    never a guess.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[1]
    if n > 24 and max_cols > 6:
        raise ValueError("oracle budget: need n <= 24 or max_cols <= 6")
    scale = max(float(np.abs(a).max()), 1e-300)
    for s in range(1, min(max_cols, n) + 1):
        for cols in combinations(range(n), s):
            sub = a[:, cols]
            sv = np.linalg.svd(sub, compute_uv=False)
            if sv[-1] <= 1e-10 * scale * np.sqrt(s):
                return SparkResult(value=s, exact=True)
    return SparkResult(value=max_cols + 1, exact=False)


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


def scan_neighbours(links, p: int) -> list:
    """Each agent's neighbours in link order, by one scan of the links per agent."""
    src, dst = _directed(links)
    return [dst[src == a].tolist() for a in range(p)]


def loop_run_subgradient(problem: Problem, graph_or_schedule: Union[Graph, TvSchedule],
                         config: Optional[SubgradConfig] = None) -> tuple:
    """One baseline run, one iteration at a time; returns (SubgradTrace, Metrics).

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


def percell_run_experiment(cfg: ExperimentConfig) -> Report:
    """Execute the full (problem seed x graph x graph seed x algorithm) grid,
    one run_cell per cell in grid order.

    A run that fails on its input or its numerics is captured in its cells
    rather than aborting the experiment; any other exception propagates.
    """
    report = Report(config_hash=cfg.config_hash,
                    seeds={"problem": list(cfg.problem_seeds),
                           "graph": list(cfg.graph_seeds)})
    for pseed in cfg.problem_seeds:
        problem = generate_problem(cfg.n, cfg.m, cfg.k, cfg.p, cfg.noise_std,
                                   cfg.spectral_cap, pseed, cfg.ensemble)
        for spec in cfg.graphs:
            for gseed in cfg.graph_seeds:
                for algo in cfg.algorithms:
                    try:
                        result = run_cell(problem, spec, gseed, algo, cfg)
                    except (ValueError, NumericFailure, AssumptionViolation) as exc:
                        for acc in cfg.accuracies:
                            report.cells.append(RunCell(
                                spec.label, gseed, pseed, algo, acc, False,
                                0, 0, 0, 0, 0, error=f"{type(exc).__name__}: {exc}"))
                        continue
                    for acc in cfg.accuracies:
                        hit = result.crossings.get(acc)
                        report.cells.append(RunCell(
                            spec.label, gseed, pseed, algo, acc, hit is not None,
                            *(hit or result.spent)))
                    report.curves[f"{spec.label}-g{gseed}-p{pseed}-{algo}"] = (
                        result.metrics, result.extra_columns)
    return report


def rowwise_write_metrics_csv(metrics: Metrics, path: str, extra_columns=()) -> None:
    """The curve file written one dict per row, one field at a time."""
    cols = METRICS_COLUMNS + list(extra_columns)
    write_csv(path, cols, ([row.get(c) for c in cols] for row in metrics.per_iteration))
