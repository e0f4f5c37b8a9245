"""Centralized iterative hard thresholding over any gradient oracle, and the
package's one CSV writer.  Inexact IHT and the stationarity certificate are
the tests' references, in tests/oracles.py."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


class NumericFailure(RuntimeError):
    """Raised when a run produces non-finite values."""

    def __init__(self, iteration: int, what: str):
        super().__init__(f"non-finite {what} at iteration {iteration}")
        self.iteration = iteration


def hard_threshold(v: np.ndarray, k: int) -> np.ndarray:
    """Zero all but the k largest-magnitude entries of v.

    The kept entries are those a stable sort of the magnitudes, largest
    first and NaN last, puts in its first k: every magnitude above the k-th,
    then the lowest-index ties at it; NaN entries are kept only when fewer
    than k entries are numbers, lowest index first.  Repeated runs and
    distributed replicas therefore agree bit for bit.  The entries are found
    by a linear-time selection, not a sort.
    """
    v = np.asarray(v, dtype=float)
    if k < 0 or k > v.size:
        raise ValueError(f"sparsity {k} out of range for dimension {v.size}")
    out = np.zeros(v.shape)
    if k == 0:
        return out
    neg = -np.abs(v)
    keep = np.argpartition(neg, k - 1)[:k]
    tau = neg[keep[-1]]  # the k-th smallest of neg; NaN sorts last
    if np.count_nonzero(neg <= tau) != k:  # a tie at the k-th magnitude, or NaN
        if np.isnan(tau):  # fewer than k numbers: all of them, then the first NaNs
            at = np.isnan(neg)
            below = ~at
        else:
            below, at = neg < tau, neg == tau
        head = np.flatnonzero(below)
        keep = np.concatenate((head, np.flatnonzero(at)[:k - head.size]))
    out[keep] = v[keep]
    return out


@dataclass
class IhtConfig:
    l: float
    k: int
    max_iters: int = 1000
    tol: float = 0.0
    x_init: np.ndarray = None  # None: the zero start

    def __post_init__(self):
        if not 0 < self.l < np.inf:
            raise ValueError(f"l = {self.l} must be finite and positive")
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
    converged_at: Optional[int] = None

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]


def truth_bound(x_star: np.ndarray, tol: float) -> float:
    """The largest error ||x - x_star|| within tol of the ground truth x_star,
    relative to its norm; -1.0, which no error meets, when tol <= 0.  A NaN
    or infinite tol raises ValueError."""
    if not -np.inf < tol < np.inf:
        raise ValueError(f"tol = {tol} must be finite")
    return tol * max(float(np.linalg.norm(x_star)), 1e-300) if tol > 0 else -1.0


def run_iht(grad_fn: Callable[[np.ndarray], np.ndarray], x_star: np.ndarray,
            config: IhtConfig, keep_iterates: bool = True, measure=None) -> IhtTrace:
    """IHT's one loop, x <- T_k(x - g/l) with g = grad_fn(x), from config.x_init
    (the zero start if unset), until measure(x) is within truth_bound(x_star,
    config.tol) (asked of the start, then after every step; by default the
    error ||x - x_star|| just recorded) or the budget ends.

    With keep_iterates off, the trace holds only the last iterate.
    """
    bound = truth_bound(x_star, config.tol)
    x = np.zeros(len(x_star)) if config.x_init is None else config.x_init.copy()
    trace = IhtTrace()
    measure = measure or (lambda _: trace.errors_vs_truth[-1])

    def record(xk):
        if not keep_iterates:
            trace.iterates.clear()
        trace.iterates.append(xk)
        trace.errors_vs_truth.append(math.sqrt((d := xk - x_star).dot(d)))

    record(x)
    if measure(x) <= bound:
        trace.converged_at = 0
        return trace
    for k in range(config.max_iters):
        g = np.asarray(grad_fn(x), dtype=float)
        if not np.isfinite(g).all():
            raise NumericFailure(k, "gradient")
        x_next = hard_threshold(x - g / config.l, config.k)
        if not np.isfinite(x_next).all():
            raise NumericFailure(k, "iterate")
        trace.step_deltas.append(math.sqrt((d := x - x_next).dot(d)) ** 2)
        record(x_next)
        x = x_next
        if measure(x) <= bound:
            trace.converged_at = k + 1
            break
    return trace


def write_csv(path: str, header, rows=(), columns=None) -> None:
    """Write a header and rows as CSV: floats as .17g, booleans as 0/1, None as
    an empty field; a field holding a comma, quote or newline is quoted.
    Given `columns`, one array per header name, it writes them side by side."""
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return int(v)
        return f"{v:.17g}" if isinstance(v, float) else v

    fmt = {"f": "{:.17g}".format, "i": str, "u": str}  # a numeric column in one pass
    rows = (([cell(v) for v in row] for row in rows) if columns is None else
            zip(*(map(fmt.get(col.dtype.kind, cell), col.tolist())
                  for col in map(np.asarray, columns))))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_trace_csv(trace: IhtTrace, path: str) -> None:
    """Dump a run as CSV with one row per iterate, kept or not.

    Columns: iter, err_vs_truth, eps_norm, step_delta_sq.  Fields that were
    not recorded are left empty.  eps_norm and step_delta_sq on row i
    describe the step from iterate i to i+1.
    """
    columns = (trace.errors_vs_truth, trace.eps_norms, trace.step_deltas)
    write_csv(path, ["iter", "err_vs_truth", "eps_norm", "step_delta_sq"],
              ([i] + [seq[i] if i < len(seq) else None for seq in columns]
               for i in range(len(trace.step_deltas) + 1)))
