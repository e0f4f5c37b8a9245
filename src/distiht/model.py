"""Sparse recovery problem instances and per-agent quadratic losses.

A problem holds a K-sparse ground-truth signal, a stacked sensing system
(A, b) and its row partition into per-agent slices.  Each agent's loss is
the squared residual of its own slice, so the network objective is the sum
of the slice losses.
"""
from __future__ import annotations

import warnings
import zipfile
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

PROBLEM_FORMAT_VERSION = 1
ENSEMBLES = ("gaussian", "tight-frame")


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


@dataclass(eq=False)
class Problem:
    """A distributed sparse recovery instance over p agents: read-only, == by value."""

    n: int
    m: int
    k: int
    p: int
    x_star: np.ndarray
    noise: np.ndarray
    a: np.ndarray  # (m, n) and (m,), the stacked system, stored once; slice i
    b: np.ndarray  # is the row view of both from offsets[i] to the next offset
    offsets: np.ndarray  # (p,)
    seed: int
    slices: list[SensingSlice] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, m, p = self.n, self.m, self.p
        for name, shape in (("x_star", (n,)), ("noise", (m,)), ("a", (m, n)), ("b", (m,))):
            view = np.asarray(getattr(self, name), dtype=float).view()  # not a copy
            view.flags.writeable = False
            setattr(self, name, view)
            if view.shape != shape:
                raise ValueError(f"{name} has shape {view.shape}, expected {shape} "
                                 f"for n={n}, m={m}")
        offsets = self.offsets = np.asarray(self.offsets)
        if (offsets.shape != (p,) or p < 1 or offsets[0] != 0
                or np.any(np.diff(offsets) < 0) or offsets[-1] > m):
            raise ValueError(f"offsets {offsets.tolist()} are not {p} non-decreasing "
                             f"row starts from 0 to at most m={m}")
        if np.count_nonzero(self.x_star) > self.k:
            raise ValueError("ground truth exceeds the sparsity budget")
        self.slices = _split(self.a, self.b, offsets)
        self._trajectory = None  # diht.iht_trajectory's last (key, trace, broadcast)

    def __eq__(self, other):
        return type(other) is Problem and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name), equal_nan=True)
            for f in fields(self) if f.compare)

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """The stored (A, b): read-only, so no copy is needed."""
        return self.a, self.b

    @cached_property
    def _stacked_lipschitz(self) -> float:  # not a field: == and repr skip it
        return 2.0 * spectral_norm(self.a) ** 2


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


def lipschitz_of_slice(sl: SensingSlice) -> float:
    """Gradient Lipschitz constant 2 lambda_max(a^T a) of one slice loss, exact."""
    if not np.any(sl.a):
        warnings.warn("zero sensing matrix: Lipschitz constant is 0", RuntimeWarning)
        return 0.0
    return 2.0 * spectral_norm(sl.a) ** 2


def spectral_norm(a: np.ndarray) -> float:
    """Exact largest singular value via the smaller-side Gram."""
    a = np.asarray(a, dtype=float)
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    lam = float(np.linalg.eigvalsh(gram)[-1])
    return float(np.sqrt(max(lam, 0.0)))


def stacked_lipschitz(problem: Problem) -> float:
    """Gradient Lipschitz constant 2 ||A||^2 of the stacked loss, exact, memoised."""
    return problem._stacked_lipschitz


def loss_info(problem: Problem) -> LossInfo:
    """Per-slice Lipschitz constants plus the (tighter) stacked constant."""
    per = [lipschitz_of_slice(s) for s in problem.slices]
    return LossInfo(lipschitz_p=per, lipschitz_global=stacked_lipschitz(problem))


def padded_slices(slices: list[SensingSlice]) -> tuple[np.ndarray, np.ndarray]:
    """The p slices as one (p, m_max, n) stack of a and (p, m_max) stack of b.

    Slices shorter than the longest are padded with zero rows, which add
    nothing to a gradient.
    """
    m_max = max(s.m_p for s in slices)
    a = np.zeros((len(slices), m_max, slices[0].n))
    b = np.zeros((len(slices), m_max))
    for q, s in enumerate(slices):
        a[q, :s.m_p] = s.a
        b[q, :s.m_p] = s.b
    return a, b


def mixed_gradients(a: np.ndarray, b: np.ndarray, x: np.ndarray, support: np.ndarray,
                    weights: np.ndarray) -> np.ndarray:
    """weights @ G, (j, n), for (j, p) weights and the slice gradients G at one
    point x that is zero off `support`; a and b come from padded_slices.

    The forward product reads only the support columns, and each result row
    is one product 2 A^T (w * residuals) over the stacked rows, so G is never
    formed; it agrees with summing loss_gradient to rounding."""
    r = a[:, :, support] @ x[support] - b
    wr = (2.0 * np.asarray(weights, dtype=float))[:, :, None] * r
    return wr.reshape(len(wr), -1) @ a.reshape(-1, a.shape[2])


def support_gradient(problem: Problem):
    """g(x, support): the gradient 2 A^T (A x - b) at an x zero off S = support, as
    2 (A^T A)[:, S] x_S - 2 A^T b to rounding; g.columns caches each column by index."""
    a, b = problem.stacked()
    atb, columns = 2.0 * (b @ a), {}

    def g(x, support):
        columns.update((j, 2.0 * (a[:, j] @ a)) for j in support if j not in columns)
        return x[support] @ np.array([columns[j] for j in support]) - atb

    g.columns = columns
    return g


def _row_counts(m: int, p: int) -> list[int]:
    # trailing agents absorb the remainder, one extra row each
    base, extra = divmod(m, p)
    return [base] * (p - extra) + [base + 1] * extra


def _split(a: np.ndarray, b: np.ndarray, offsets) -> list[SensingSlice]:
    """The slices of the stacked (a, b), slice i starting at row offsets[i];
    each slice is a view of a and b."""
    bounds = list(offsets) + [len(b)]
    return [SensingSlice(a[lo:hi], b[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def check_problem_args(n: int, m: int, k: int, p: int, noise_std: float,
                       spectral_cap: float, ensemble: str) -> None:
    """Raise ValueError unless generate_problem can build this instance."""
    if k < 0 or k > n:
        raise ValueError(f"sparsity k = {k} must lie in [0, n = {n}]")
    if m < 1 or p < 1 or p > m:
        raise ValueError(f"need at least one measurement row per agent, m = {m}, p = {p}")
    if not 0 <= noise_std < np.inf:
        raise ValueError(f"noise_std = {noise_std} must be finite and at least 0")
    if not 0 < spectral_cap < np.inf:
        raise ValueError(f"spectral_cap = {spectral_cap} must be finite and positive")
    if ensemble not in ENSEMBLES:
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
    check_problem_args(n, m, k, p, noise_std, spectral_cap, ensemble)
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

    offsets = np.cumsum([0] + _row_counts(m, p))[:-1]
    return Problem(n=n, m=m, k=k, p=p, x_star=x_star, noise=noise, a=a, b=b,
                   offsets=offsets, seed=seed)


def save_problem(problem: Problem, path: str) -> None:
    """Write a problem to a self-describing .npz container.

    Layout (format version 1): scalar fields n, m, k, p, seed and
    format_version; `offsets` gives the first row of each slice in the
    stacked float64 matrix `a` (in the memory order it is stored in) and
    vector `b`; `x_star` and `noise` complete the instance.
    """
    np.savez(path, format_version=PROBLEM_FORMAT_VERSION,
             n=problem.n, m=problem.m, k=problem.k, p=problem.p,
             seed=problem.seed, offsets=problem.offsets, a=problem.a, b=problem.b,
             x_star=problem.x_star, noise=problem.noise)


def load_problem(path: str) -> Problem:
    """Read a problem written by save_problem, rejecting a malformed layout or
    a file that is not a complete archive."""
    try:
        with open(path, "rb") as fh, np.load(fh) as z:  # an .npy array cannot be entered
            version, n, m, k, p, seed = (int(z[key]) for key in
                                         ("format_version", "n", "m", "k", "p", "seed"))
            a, b, x_star, noise, offsets = (z[key] for key in
                                            ("a", "b", "x_star", "noise", "offsets"))
    except (KeyError, TypeError, zipfile.BadZipFile) as exc:
        raise ValueError(f"not a complete problem archive: {exc}") from None
    if version != PROBLEM_FORMAT_VERSION:
        raise ValueError(f"unsupported problem format version {version}")
    return Problem(n=n, m=m, k=k, p=p, x_star=x_star, noise=noise, a=a, b=b,
                   offsets=offsets, seed=seed)
