"""Sparse recovery problem instances and per-agent quadratic losses.

A problem holds a K-sparse ground-truth signal, a stacked sensing system
(A, b) and its row partition into per-agent slices.  Each agent's loss is
the squared residual of its own slice, so the network objective is the sum
of the slice losses.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

PROBLEM_FORMAT_VERSION = 1


@dataclass
class SensingSlice:
    """One agent's share of the measurements: b = a @ x_true + noise rows."""

    a: np.ndarray  # (m_p, n)
    b: np.ndarray  # (m_p,)

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.a.ndim != 2 or self.b.ndim != 1 or self.a.shape[0] != self.b.shape[0]:
            raise ValueError("slice shapes inconsistent: a is m_p x n, b is length m_p")
        if self.m_p < 1:
            raise ValueError("empty sensing slice")

    @property
    def m_p(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]


@dataclass
class Problem:
    """A distributed sparse recovery instance over p agents."""

    n: int
    m: int
    k: int
    p: int
    x_star: np.ndarray
    noise: np.ndarray
    slices: list[SensingSlice]
    seed: int

    def __post_init__(self):
        if np.count_nonzero(self.x_star) > self.k:
            raise ValueError("ground truth exceeds the sparsity budget")
        if sum(s.m_p for s in self.slices) != self.m:
            raise ValueError("slice rows do not add up to m")

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """Reassemble the full (A, b) from the slices."""
        return (np.vstack([s.a for s in self.slices]),
                np.concatenate([s.b for s in self.slices]))


@dataclass
class LossInfo:
    """Gradient-smoothness constants of the slice losses and their stack."""

    lipschitz_p: list[float]
    lipschitz_sum: float = field(init=False)
    lipschitz_global: float = 0.0

    def __post_init__(self):
        self.lipschitz_sum = float(sum(self.lipschitz_p))


def loss_value(sl: SensingSlice, x: np.ndarray) -> float:
    """Squared residual ||a x - b||^2 of one slice at x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (sl.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({sl.n},)")
    r = sl.a @ x - sl.b
    return float(r @ r)


def loss_gradient(sl: SensingSlice, x: np.ndarray) -> np.ndarray:
    """Gradient 2 a^T (a x - b) of the slice loss at x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (sl.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({sl.n},)")
    return 2.0 * (sl.a.T @ (sl.a @ x - sl.b))


def _power_iteration_sq(a: np.ndarray, tol: float = 1e-10, max_iters: int = 200) -> float:
    """Largest eigenvalue of a^T a by power iteration with a fixed-seed start.

    Iterates on the implicit Gram so only matvecs with a are needed.  The
    per-agent slices have few rows, so the eigengap is large and 200
    iterations are ample there.
    """
    rng = np.random.default_rng(0)
    v = rng.standard_normal(a.shape[1])
    nv = np.linalg.norm(v)
    v /= nv
    lam = 0.0
    for _ in range(max_iters):
        w = a.T @ (a @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        lam_new = float(v @ w)
        v = w / nw
        if abs(lam_new - lam) <= tol * max(lam_new, 1e-300):
            return lam_new
        lam = lam_new
    return lam


def lipschitz_of_slice(sl: SensingSlice, tol: float = 1e-10) -> float:
    """Gradient Lipschitz constant 2 lambda_max(a^T a) of one slice loss."""
    if not np.any(sl.a):
        warnings.warn("zero sensing matrix: Lipschitz constant is 0", RuntimeWarning)
        return 0.0
    return 2.0 * _power_iteration_sq(sl.a, tol=tol)


def spectral_norm(a: np.ndarray) -> float:
    """Exact largest singular value via the smaller-side Gram."""
    a = np.asarray(a, dtype=float)
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    lam = float(np.linalg.eigvalsh(gram)[-1])
    return float(np.sqrt(max(lam, 0.0)))


def stacked_lipschitz(problem: Problem) -> float:
    """Gradient Lipschitz constant 2 ||A||^2 of the stacked loss, exact."""
    return 2.0 * spectral_norm(problem.stacked()[0]) ** 2


def loss_info(problem: Problem) -> LossInfo:
    """Per-slice Lipschitz constants plus the (tighter) stacked constant."""
    per = [lipschitz_of_slice(s) for s in problem.slices]
    return LossInfo(lipschitz_p=per, lipschitz_global=stacked_lipschitz(problem))


def padded_slices(problem: Problem) -> tuple[np.ndarray, np.ndarray]:
    """Every slice as one (p, m_max, n) stack of a and (p, m_max) stack of b.

    Slices shorter than the longest are padded with zero rows, which add
    nothing to a gradient.
    """
    m_max = max(s.m_p for s in problem.slices)
    a = np.zeros((problem.p, m_max, problem.n))
    b = np.zeros((problem.p, m_max))
    for q, s in enumerate(problem.slices):
        a[q, :s.m_p] = s.a
        b[q, :s.m_p] = s.b
    return a, b


def batched_gradients(a: np.ndarray, b: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Every slice gradient 2 a_q^T (a_q x_q - b_q) as one (p, n) array.

    a and b come from padded_slices, and row q of xs is agent q's point.
    Each agent's result agrees with loss_gradient to rounding, not bit for
    bit: the batched products sum in a different order.
    """
    r = np.matmul(a, xs[:, :, None])[:, :, 0] - b
    return 2.0 * np.matmul(r[:, None, :], a)[:, 0, :]


def _row_counts(m: int, p: int) -> list[int]:
    # trailing agents absorb the remainder, one extra row each
    base, extra = divmod(m, p)
    return [base] * (p - extra) + [base + 1] * extra


def check_problem_args(n: int, m: int, k: int, p: int, spectral_cap: float,
                       ensemble: str) -> None:
    """Raise ValueError unless generate_problem can build this instance."""
    if k < 0 or k > n:
        raise ValueError(f"sparsity k = {k} must lie in [0, n = {n}]")
    if m < 1 or p < 1 or p > m:
        raise ValueError(f"need at least one measurement row per agent, m = {m}, p = {p}")
    if spectral_cap <= 0:
        raise ValueError("spectral_cap must be positive")
    if ensemble not in ("gaussian", "tight-frame"):
        raise ValueError(f"unknown ensemble {ensemble!r}")
    if ensemble == "tight-frame" and m > n:
        raise ValueError(f"tight-frame ensemble needs m <= n (m = {m}, n = {n})")


def generate_problem(n: int, m: int, k: int, p: int, noise_std: float = 0.0,
                     spectral_cap: float = 0.99, seed: int = 0,
                     ensemble: str = "gaussian") -> Problem:
    """Draw a random instance and split its rows contiguously over p agents.

    Parameters
    ----------
    n, m, k, p : signal length, measurement count, sparsity, agent count.
    noise_std : standard deviation of the i.i.d. measurement error.
    spectral_cap : the sensing matrix is rescaled so its spectral norm
        equals this value exactly.
    seed : RNG seed; the instance is a pure function of the arguments.
    ensemble : "gaussian" rescales an i.i.d. Gaussian matrix;
        "tight-frame" orthonormalizes its rows first (requires m <= n),
        which flattens the nonzero spectrum and is the well-conditioned
        choice for near-isometry-dependent recovery tests.
    """
    check_problem_args(n, m, k, p, spectral_cap, ensemble)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    if ensemble == "tight-frame":
        a = np.linalg.qr(a.T)[0].T  # orthonormal rows
        a = spectral_cap * a
    else:
        a = a * (spectral_cap / spectral_norm(a))

    x_star = np.zeros(n)
    support = rng.choice(n, size=k, replace=False)
    x_star[support] = rng.standard_normal(k)

    noise = noise_std * rng.standard_normal(m)
    b = a @ x_star + noise

    slices = []
    off = 0
    for rows in _row_counts(m, p):
        slices.append(SensingSlice(a[off:off + rows], b[off:off + rows]))
        off += rows
    return Problem(n=n, m=m, k=k, p=p, x_star=x_star, noise=noise,
                   slices=slices, seed=seed)


def save_problem(problem: Problem, path: str) -> None:
    """Write a problem to a self-describing .npz container.

    Layout (format version 1): scalar fields n, m, k, p, seed and
    format_version; `offsets` gives the first row of each slice in the
    stacked row-major float64 matrix `a` and vector `b`; `x_star` and
    `noise` complete the instance.
    """
    a, b = problem.stacked()
    offsets = np.cumsum([0] + [s.m_p for s in problem.slices])[:-1]
    np.savez(path, format_version=PROBLEM_FORMAT_VERSION,
             n=problem.n, m=problem.m, k=problem.k, p=problem.p,
             seed=problem.seed, offsets=offsets,
             a=np.ascontiguousarray(a), b=b,
             x_star=problem.x_star, noise=problem.noise)


def load_problem(path: str) -> Problem:
    """Read a problem written by save_problem, rejecting a malformed layout."""
    with np.load(path) as z:
        version = int(z["format_version"])
        if version != PROBLEM_FORMAT_VERSION:
            raise ValueError(f"unsupported problem format version {version}")
        n, m, p = int(z["n"]), int(z["m"]), int(z["p"])
        a, b, x_star, offsets = z["a"], z["b"], z["x_star"], z["offsets"]
        if a.shape != (m, n) or b.shape != (m,) or x_star.shape != (n,):
            raise ValueError(f"a {a.shape}, b {b.shape} and x_star {x_star.shape} "
                             f"do not fit n={n}, m={m}")
        if (offsets.shape != (p,) or p < 1 or offsets[0] != 0
                or np.any(np.diff(offsets) < 0) or offsets[-1] > m):
            raise ValueError(f"offsets {offsets.tolist()} are not {p} non-decreasing "
                             f"row starts from 0 to at most m={m}")
        bounds = offsets.tolist() + [m]
        slices = [SensingSlice(a[bounds[i]:bounds[i + 1]], b[bounds[i]:bounds[i + 1]])
                  for i in range(p)]
        return Problem(n=n, m=m, k=int(z["k"]), p=p, x_star=x_star, noise=z["noise"],
                       slices=slices, seed=int(z["seed"]))
