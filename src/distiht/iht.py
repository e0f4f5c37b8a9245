"""Centralized iterative hard thresholding, exact and with injected gradient error.

Also houses the stationarity certificate, the per-iteration descent-gap
check, and a brute-force spark oracle for validating test instances.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Optional

import numpy as np


class NumericFailure(RuntimeError):
    """Raised when a run produces non-finite values."""

    def __init__(self, iteration: int, what: str):
        super().__init__(f"non-finite {what} at iteration {iteration}")
        self.iteration = iteration


def hard_threshold(v: np.ndarray, k: int) -> np.ndarray:
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


def iht_step(x: np.ndarray, grad: np.ndarray, l: float, k: int) -> np.ndarray:
    """One gradient step of length 1/l followed by hard thresholding."""
    x = np.asarray(x, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if x.shape != grad.shape:
        raise ValueError("x and grad dimensions differ")
    if l <= 0:
        raise ValueError("step constant l must be positive")
    return hard_threshold(x - grad / l, k)


@dataclass
class IhtConfig:
    l: float
    k: int
    max_iters: int = 1000
    tol: float = 0.0
    x_init: np.ndarray = None

    def __post_init__(self):
        if self.l <= 0:
            raise ValueError("l must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.x_init is not None:
            self.x_init = np.asarray(self.x_init, dtype=float)
            if np.count_nonzero(self.x_init) > self.k:
                raise ValueError("x_init is not k-sparse")


@dataclass
class IhtTrace:
    """Everything recorded along a run; iterates[0] is the initial point."""

    iterates: list = field(default_factory=list)
    errors_vs_truth: list = field(default_factory=list)
    eps_norms: list = field(default_factory=list)
    step_deltas: list = field(default_factory=list)  # ||x^k - x^{k+1}||^2
    f_values: list = field(default_factory=list)
    converged_at: Optional[int] = None

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]


def _run(grad_fn, injector, x_star, config: IhtConfig, loss_fn,
         keep_iterates: bool = True) -> IhtTrace:
    if config.x_init is None:
        raise ValueError("config.x_init is required to size the run")
    x = config.x_init.copy()
    trace = IhtTrace()
    x_star_norm = np.linalg.norm(x_star) if x_star is not None else None

    def record(xk):
        if keep_iterates or not trace.iterates:
            trace.iterates.append(xk)
        else:
            trace.iterates[-1] = xk
        if x_star is not None:
            trace.errors_vs_truth.append(float(np.linalg.norm(xk - x_star)))
        if loss_fn is not None:
            trace.f_values.append(float(loss_fn(xk)))

    def converged(x_prev) -> bool:
        if config.tol <= 0:
            return False
        if x_star is not None:
            return trace.errors_vs_truth[-1] <= config.tol * max(x_star_norm, 1e-300)
        # reference-free stop on the relative iterate change
        if x_prev is None:
            return False
        step = np.sqrt(trace.step_deltas[-1])
        return step / max(1.0, float(np.linalg.norm(x_prev))) <= config.tol

    record(x)
    if converged(None):
        trace.converged_at = 0
        return trace
    for k in range(config.max_iters):
        g = np.asarray(grad_fn(x), dtype=float)
        if not np.all(np.isfinite(g)):
            raise NumericFailure(k, "gradient")
        if injector is not None:
            eps = np.asarray(injector(k), dtype=float)
            trace.eps_norms.append(float(np.linalg.norm(eps)))
            g = g + eps
        x_next = hard_threshold(x - g / config.l, config.k)
        if not np.all(np.isfinite(x_next)):
            raise NumericFailure(k, "iterate")
        trace.step_deltas.append(float(np.linalg.norm(x - x_next) ** 2))
        record(x_next)
        x_prev, x = x, x_next
        if converged(x_prev):
            trace.converged_at = k + 1
            break
    return trace


def run_iht(grad_fn: Callable[[np.ndarray], np.ndarray],
            x_star: Optional[np.ndarray], config: IhtConfig,
            loss_fn=None, keep_iterates: bool = True) -> IhtTrace:
    """Exact-gradient IHT: x <- T_k(x - grad(x)/l) until tol or budget.

    With keep_iterates off, the trace holds only the last iterate.
    """
    return _run(grad_fn, None, x_star, config, loss_fn, keep_iterates)


def run_inexact_iht(grad_fn: Callable[[np.ndarray], np.ndarray],
                    error_injector: Callable[[int], np.ndarray],
                    x_star: Optional[np.ndarray], config: IhtConfig,
                    loss_fn=None) -> IhtTrace:
    """IHT where iteration k uses grad(x) + error_injector(k) in the step."""
    return _run(grad_fn, error_injector, x_star, config, loss_fn)


@dataclass
class StationarityReport:
    ok: bool
    m_k: float
    violations: list  # (index, |grad_i|, bound) triples

    def __bool__(self):
        return self.ok


def is_l_stationary(grad_fn, x: np.ndarray, l: float, k: int,
                    tol: float = 1e-8) -> StationarityReport:
    """Certify the fixed-point condition x = T_k(x - grad(x)/l) coordinatewise.

    On the support the gradient must vanish (up to tol); off the support it
    may be as large as l times the k-th largest magnitude of x, plus tol.
    """
    x = np.asarray(x, dtype=float)
    if np.count_nonzero(x) > k:
        raise ValueError("x is not k-sparse")
    g = np.asarray(grad_fn(x), dtype=float)
    mags = np.sort(np.abs(x))[::-1]
    m_k = float(mags[k - 1]) if k >= 1 else 0.0
    violations = []
    for i in range(x.size):
        if x[i] != 0.0:
            bound = tol
        else:
            bound = l * m_k + tol
        if abs(g[i]) > bound:
            violations.append((i, float(abs(g[i])), bound))
    return StationarityReport(ok=not violations, m_k=m_k, violations=violations)


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


def write_trace_csv(trace: IhtTrace, path: str) -> None:
    """Dump a run as CSV with one row per iterate, kept or not.

    Columns: iter, err_vs_truth, f_value, eps_norm, step_delta_sq.  Fields
    that were not recorded are left empty.  eps_norm and step_delta_sq on
    row i describe the step from iterate i to i+1.
    """
    def cell(seq, i):
        return f"{seq[i]:.17g}" if i < len(seq) else ""

    with open(path, "w") as fh:
        fh.write("iter,err_vs_truth,f_value,eps_norm,step_delta_sq\n")
        for i in range(len(trace.step_deltas) + 1):
            fh.write(",".join([str(i), cell(trace.errors_vs_truth, i),
                               cell(trace.f_values, i), cell(trace.eps_norms, i),
                               cell(trace.step_deltas, i)]) + "\n")
