"""Reference code that only the tests call: hard thresholding by a stable
sort, the brute-force spark oracle that validates test instances, the
per-iteration descent-gap inequality, and max-consensus flooding over a
schedule."""
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from distiht.graphs import TvSchedule


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
