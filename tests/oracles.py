"""Reference code that only the tests call: hard thresholding by a stable
sort, the brute-force spark oracle that validates test instances, the
per-iteration descent-gap inequality, IHT with an injected gradient error
and the L-stationarity certificate, max-consensus flooding over a schedule,
the step bounds a deployment could compute in-network, the connectivity
window by one BFS per window, the reader of the schedule file `gen-schedule`
writes, neighbour lists by one scan per agent, the diffusive step and table
entry on numpy arrays (W kept whole, joiners' rows included), the
diffusive machine that kept each instance's contributions, the subgradient
baseline's one-run loop, the per-cell experiment grid, the crossings searched
and the curve thinned after a run, the row-wise curve writer, and the CB-DIHT
settings that no product path changes."""
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable, Optional, Union
from unittest import mock

import numpy as np

from distiht import cbdiht, consensus, harness
from distiht.consensus import (Links, directed_links, metropolis_matrix,
                               metropolis_weights)
from distiht.diht import (METRICS_COLUMNS, SAFETY, Metrics, _tree_sum,
                          _tree_traffic)
from distiht.graphs import (AssumptionViolation, Graph, SpanningTree, TvSchedule,
                            _is_connected, static_schedule)
from distiht.harness import ExperimentConfig, Report, RunCell, RunResult, run_cell
from distiht.iht import (IhtConfig, IhtTrace, NumericFailure, run_iht, truth_bound,
                         write_csv)
from distiht.model import Problem, generate_problem, lipschitz_of_slice, padded_slices
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


# IHT with an injected gradient error, the paper's inexact-IHT setting whose
# product instance is CB-DIHT's consensus oracle over `run_iht`, and the
# L-stationarity certificate (Beck & Eldar 2013) its limits are checked with.
def run_inexact_iht(grad_fn: Callable[[np.ndarray], np.ndarray],
                    error_fn: Callable[[int], np.ndarray],
                    x_star: np.ndarray, config: IhtConfig) -> IhtTrace:
    """IHT where iteration k steps along grad(x) + error_fn(k): run_iht with a
    gradient oracle that adds the error and records its norm in eps_norms."""
    eps_norms = []

    def gradient(x):
        eps = np.asarray(error_fn(len(eps_norms)), dtype=float)
        eps_norms.append(float(np.linalg.norm(eps)))
        return np.asarray(grad_fn(x), dtype=float) + eps

    trace = run_iht(gradient, x_star, config)
    trace.eps_norms = eps_norms
    return trace


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
    bounds = np.where(x != 0.0, tol, l * m_k + tol)
    violations = [(int(i), float(abs(g[i])), float(bounds[i]))
                  for i in np.flatnonzero(np.abs(g) > bounds)]
    return StationarityReport(ok=not violations, m_k=m_k, violations=violations)


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


# The step bounds an actual deployment could compute in-network, with the
# library's SAFETY margin: tree aggregation of the per-agent constants for
# DIHT, or a max-consensus on them for CB-DIHT.  The runs default to the
# exact stacked constant instead.
def aggregate_lipschitz(tree: SpanningTree, per_agent_lipschitz) -> tuple:
    """Tree sum of the per-agent smoothness constants; a valid global bound.

    One request value travels down each edge and one scalar partial sum
    comes back up.
    """
    vals = [float(v) for v in per_agent_lipschitz]
    if len(vals) != tree.p:
        raise ValueError("need exactly one constant per agent")
    total = float(_tree_sum(tree, [np.array([v]) for v in vals])[0])
    return total, Metrics(*_tree_traffic(tree, 1, 1))


def distributed_step_constant(problem: Problem, tree: SpanningTree) -> tuple:
    """Step constant a DIHT deployment could compute: the tree-aggregated
    sum of per-agent constants, times SAFETY."""
    per_agent = [lipschitz_of_slice(s) for s in problem.slices]
    total, delta = aggregate_lipschitz(tree, per_agent)
    return SAFETY * total, delta


def max_consensus_l_tv(problem: Problem) -> float:
    """Step bound a CB-DIHT deployment can find without the stacked matrix:
    the largest per-agent smoothness constant dominates the per-agent average."""
    return SAFETY * max(lipschitz_of_slice(s) for s in problem.slices)


def bfs_validate_connectivity_window(s: TvSchedule) -> int:
    """Smallest window length whose every union of consecutive subgraphs connects.

    A window's union only grows with its length, so this is the largest, over
    the cyclic starts, of the first length whose union connects.  The union
    of a whole period is the base graph, so every start finds one.
    """
    if not s.base.is_connected():
        raise AssumptionViolation("base graph is disconnected")
    window = 1
    for start in range(s.period):
        union = set()
        for length in range(1, s.period + 1):
            union.update(s.subgraphs[(start + length - 1) % s.period])
            if _is_connected(s.p, union):
                window = max(window, length)
                break
    return window


# The reader of `schedule_to_text`'s form, the round-trip oracle of the file
# `gen-schedule` writes (no command reads it back), with its block parser.
def schedule_blocks(text: str) -> tuple:
    """The '# p=' count and one edge block per '# t=' header.  Other '#' lines
    are comments.  A line that is neither a header nor a 'u v' pair, or an
    edge before the first '# t=' header, raises a ValueError naming it."""
    p: Optional[int] = None
    blocks: list = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        try:
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                if key.strip() == "p":
                    p = int(val)
                elif key.strip() == "t":
                    blocks.append([])
            elif line:
                u, v = line.split()
                if not blocks:
                    raise ValueError("an edge before the first '# t=' header")
                blocks[-1].append((int(u), int(v)))
        except ValueError as exc:
            raise ValueError(f"line {number}: {line!r}: {exc}") from None
    if p is None:
        raise ValueError("missing '# p=' header")
    return p, blocks


def schedule_from_text(text: str) -> TvSchedule:
    p, subgraphs = schedule_blocks(text)
    base = Graph(p=p, edges=[e for sub in subgraphs for e in sub])  # their union
    return TvSchedule(base=base, subgraphs=subgraphs)


def scan_neighbours(links: Links, p: int) -> list:
    """Each agent's neighbours in link order, by one scan of the links per agent."""
    return [links.dst[links.src == a].tolist() for a in range(p)]


# The table-miss kernel before the machine's state became Python ints, kept as
# it was, renamed, as the oracle of `consensus._entry`: the step on numpy
# arrays, and the entry it makes from a key of int32 ranks and the activation
# matrix packed in one run of bits.
def reference_transition(inst: np.ndarray, active: np.ndarray, links: Links) -> tuple:
    """One synchronous step from the instances `inst` (negative: not joined)
    and activations `active` over `links`; mutates nothing.

    Values first move over the links their sender had activated, and agents
    average with same-instance neighbours under Metropolis weights.  Then
    the INITIATE wave runs in agent-index order; an agent that joins from a
    lower-indexed sender forwards in this step.  Returns the next `inst` and
    `active`, the mixing matrix W (None: the identity; an agent that
    averages nothing has row e_q), the joiners, and each agent's value sends
    and INITIATE fan-out.
    """
    src, dst = links
    p = len(inst)
    nbrs = scan_neighbours(links, p)
    live = active[src, dst]
    # the far end of a live same-instance link is active too, since
    # instances only grow and an INITIATE activates both ends at once
    avg = live & (inst[src] == inst[dst])
    w = metropolis_matrix(src[avg], dst[avg], p)[0] if avg.any() else None
    # every joined agent ships its row on its live links, whether or not
    # the far end still listens to its instance
    sends = np.bincount(src[live], minlength=p)

    start, inst, active = inst, inst.copy(), active.copy()
    fanout = np.zeros(p, dtype=int)
    pending = np.bincount(src[~live & (inst[src] >= 0)], minlength=p).tolist()
    for a in range(p):
        if not pending[a]:
            continue
        fresh = [q for q in nbrs[a] if not active[a, q]]
        if not fresh:
            continue
        fanout[a] = len(fresh)
        ka = int(inst[a])
        for q in fresh:
            active[a, q] = True
            if ka > inst[q]:
                inst[q] = ka
                active[q] = False
                active[q, a] = True
                pending[q] = True
            elif ka == inst[q]:
                active[q, a] = True  # pure link activation
            # an already-fresher receiver ignores the message
    return inst, active, w, np.flatnonzero(inst != start), sends, fanout


def reference_key(ranks: np.ndarray, active: np.ndarray) -> bytes:
    return ranks.astype(np.int32).tobytes() + np.packbits(active).tobytes()


def reference_decode(key: bytes, p: int) -> tuple:
    bits = np.unpackbits(np.frombuffer(key, np.uint8, offset=4 * p), count=p * p)
    return np.frombuffer(key, np.int32, count=p), bits.reshape(p, p).astype(bool)


def reference_entry(key: bytes, links: Links, p: int) -> tuple:
    """The table entry of one step over `links` from the state `key` of p
    agents: the next key, the rank each next rank had, W's flat nonzeros
    (None for the identity), the joiners and the cost row
    (sends, fan-out, senders, initiators)."""
    ranks, active = reference_decode(key, p)
    # rank 0 is "not joined", which reference_transition reads as a negative instance
    inst, active, w, joiners, sends, fanout = reference_transition(ranks - 1, active, links)
    after = inst + 1
    kept = np.flatnonzero(np.bincount(np.append(after, 0)))  # next rank -> rank
    return (reference_key(np.searchsorted(kept, after), active), kept,
            None if w is None else (np.flatnonzero(w), w[w != 0]), joiners,
            np.array([sends.sum(), fanout.sum(), np.count_nonzero(sends),
                      np.count_nonzero(fanout)]))


# The diffusive machine before it became coefficient-only, kept verbatim (the
# table cap read from the module) as the oracle for `DiffusiveConsensus`: it
# keeps each live instance's contributions as an immutable basis and derives
# every agent's value from them, and its `step` runs `reference_transition` itself.
class BasisConsensus:
    """Lockstep state machine for initiation-gated averaging over instances.

    Averaging is linear, so the machine tracks mixing coefficients, not
    vectors.  Each live instance i has one immutable `(p, dim)` array
    `bases[i]`, row q being what agent q contributes once it joins; agent q
    holds the coefficient row `coef[q]`, and its value is
    `coef[q] @ bases[inst[q]]` (`values` derives them all).  `inst[q]` is
    the instance q joined (-1 before it joins any, whose basis is the
    background); `active[a, q]` says that a activated its link to q.  An
    instance opens at one agent and spreads by INITIATE messages along the
    links each step offers; an agent adopts any fresher instance that
    reaches it, starting from coefficient row e_q, and drops its old links.
    Agents that have not joined, or have no same-instance active link this
    step, hold their coefficient row bit-unchanged.  Instance numbers only
    grow; the constructor's instance 0 may be reopened before any step.

    A step (`reference_transition`) never reads the values and compares instances
    only for order and equality, so `advance` replays steps from a table
    keyed on the period phase, `active` and each agent's instance rank (not
    joined lowest).
    """

    def __init__(self, p: int, initiator: int, initiator_value: np.ndarray,
                 background: Optional[np.ndarray] = None):
        self.p = p
        self.dim = np.atleast_1d(np.asarray(initiator_value, dtype=float)).shape[0]
        background = np.zeros((p, self.dim)) if background is None \
            else np.array(background, dtype=float)
        self.coef = np.eye(p)
        self.inst = np.full(p, -1, dtype=int)
        self.active = np.zeros((p, p), dtype=bool)
        self.initiated_at: list = [None] * p  # step from which each takes part
        self.step_count = 0
        self._periods, self._table = None, {}  # see advance
        background.flags.writeable = False
        self.bases = {-1: background}
        first = background.copy()
        first[initiator] = initiator_value
        self.open(0, initiator, first)

    @property
    def values(self) -> np.ndarray:
        """Every agent's row `coef[q] @ bases[inst[q]]`, as a new array."""
        out = np.empty((self.p, self.dim))
        for i, basis in self.bases.items():
            rows = self.inst == i
            out[rows] = self.coef[rows] @ basis
        return out

    def open(self, instance: int, agent: int, contributions: np.ndarray) -> None:
        """Start `instance` at `agent` over the `(p, dim)` `contributions`
        (row q is what agent q brings when it joins); the agent contributes
        its own row and re-activates its links from scratch.  The machine
        keeps a read-only view, so the caller must not write to the array
        while the instance lives."""
        basis = np.asarray(contributions, dtype=float).view()
        if basis.shape != (self.p, self.dim):
            raise ValueError(f"contributions have shape {basis.shape}, "
                             f"expected ({self.p}, {self.dim})")
        basis.flags.writeable = False
        self.bases[instance] = basis
        self.coef[agent] = 0.0
        self.coef[agent, agent] = 1.0
        self.active[agent] = False
        self.inst[agent] = instance
        self.initiated_at[agent] = self.step_count
        self._prune()

    def _prune(self) -> None:
        # a basis lives as long as some agent holds its instance
        live = set(self.inst.tolist())
        for i in [i for i in self.bases if i not in live]:
            del self.bases[i]

    def _apply(self, w: Optional[np.ndarray], joiners: np.ndarray, t: int) -> None:
        """Step t's effect on the coefficients, for `step` and table hits
        alike: `coef = W @ coef` (W None: the identity), then each joiner
        restarts from row e_q and takes part from step t + 1."""
        if w is not None:  # a row e_q keeps a finite row bit-exact
            self.coef = w @ self.coef
        if len(joiners):
            self.coef[joiners] = 0.0
            self.coef[joiners, joiners] = 1.0
            for q in joiners.tolist():
                self.initiated_at[q] = t + 1

    def step(self, links):
        """One synchronous step over `links` (a `Links` or a list of pairs),
        as `reference_transition` describes it.  Returns each agent's value sends and
        INITIATE fan-out.
        """
        if not isinstance(links, Links):
            links = directed_links(links)
        self.inst, self.active, w, joiners, sends, fanout = reference_transition(
            self.inst, self.active, links)
        self._apply(w, joiners, self.step_count)
        self._prune()
        self.step_count += 1
        return sends, fanout

    def advance(self, periods: list, steps: int) -> np.ndarray:
        """Run `steps` steps, step t over `periods[t % len(periods)]` (a list
        of `Links`); return the summed (sends, fan-out, senders, initiators).

        The first visit to a (state, phase) runs `reference_transition` on the state
        and stores what it did; every visit then applies it as `step` does.
        The state is hashed on entry and written back on exit, so `open` and
        `step` calls in between are fine.
        """
        total, steps = np.zeros(4, dtype=np.int64), max(steps, 0)
        if periods is not self._periods:  # a new list of links starts a new table
            self._periods, self._table = periods, {}
        p, start = self.p, self.step_count
        u = np.array(sorted(set(self.inst.tolist()) | {-1}))  # rank -> instance
        key = reference_key(np.searchsorted(u, self.inst), self.active)
        for t in range(start, start + steps):
            phase = t % len(periods)
            entry = self._table.get((key, phase))
            if entry is None:
                if len(self._table) >= consensus.TABLE_CAP:
                    self._table = {}
                entry = self._table[key, phase] = reference_entry(key, periods[phase], p)
            key, kept, mix, joiners, row = entry
            u = u[kept]  # W's nonzeros are scattered into a zeroed (p, p)
            w = None if mix is None else np.bincount(*mix, minlength=p * p).reshape(p, p)
            self._apply(w, joiners, t)
            total += row
        ranks, self.active = reference_decode(key, p)
        self.inst, self.step_count = u[ranks], start + steps
        self._prune()
        return total


def cost_row(sends: np.ndarray, fanout: np.ndarray) -> np.ndarray:
    """Per-agent value sends and INITIATE fan-out reduced to a step's cost row
    (sends, fan-out, senders, initiators)."""
    return np.array([sends.sum(), fanout.sum(), np.count_nonzero(sends),
                     np.count_nonzero(fanout)])


def assert_matches_basis_machine(machine, oracle: BasisConsensus) -> None:
    """`machine`, a `DiffusiveConsensus`, equals the `oracle` bit for bit on its
    coefficients, instances, activations, join steps and step count, so each
    instance's values are its coefficient rows times the oracle's basis.  Its
    `values` cover instance 0 and the background; they may differ from the
    oracle's, which multiplies only those rows, in the last bits of BLAS's
    row blocking, within 1e-15 of the largest contribution."""
    assert machine.coef.tobytes() == oracle.coef.tobytes()
    assert np.array_equal(machine.inst, oracle.inst)
    assert np.array_equal(machine.active, oracle.active)
    assert machine.initiated_at == oracle.initiated_at
    assert machine.step_count == oracle.step_count
    values = oracle.values
    for i, basis in oracle.bases.items():
        rows = oracle.inst == i
        assert (machine.coef[rows] @ basis).tobytes() == values[rows].tobytes()
    first = machine.inst <= 0
    scale = float(np.max(np.abs(machine.start), initial=0.0))
    np.testing.assert_allclose(machine.values[first], values[first],
                               rtol=0, atol=1e-15 * scale)


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
    weights = [metropolis_weights(links, p) for links in schedule.subgraphs]
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


# The harness's crossings and curves before the subgradient lockstep kept only
# what it reports, kept as the oracle of the grid: each error series is
# searched after the run, and the subgradient's full curve then thinned.
def posthoc_result(problem: Problem, cfg: ExperimentConfig, metrics: Metrics, errors,
                   converged_at, extra_columns=(), trace=None) -> RunResult:
    """Crossings of `errors`, the error after each iteration, one per metrics row."""
    spent = (len(errors), *metrics.totals)
    if converged_at == 0:  # the start met the tightest target, so every one
        crossings = dict.fromkeys(cfg.accuracies, spent)
    else:
        # an error first reaches a target where its running minimum does
        best = np.minimum.accumulate(np.nan_to_num(errors, nan=np.inf))
        targets = np.array([truth_bound(problem.x_star, acc) for acc in cfg.accuracies])
        hits = np.searchsorted(-best, -targets)
        counters = [metrics.columns[c] for c in METRICS_COLUMNS if c != "err"]
        crossings = {acc: tuple(int(col[hit]) for col in counters)
                     for acc, hit in zip(cfg.accuracies, hits) if hit < len(best)}
    return RunResult(metrics, crossings, spent, converged_at, extra_columns, trace)


def thin(metrics: Metrics, every: int) -> Metrics:
    """The same run with only every `every`-th row and the last kept."""
    keep = metrics.columns["iter"] % every == 0
    keep[-1:] = True
    return replace(metrics, columns={name: c[keep] for name, c in metrics.columns.items()})


def posthoc_run_subgrad(problem, schedule, cfg) -> RunResult:
    """A subgradient cell from the one-run loop's full history."""
    config = SubgradConfig(step_exponent=cfg.step_exponent, max_iters=cfg.max_iters,
                           tol=min(cfg.accuracies))
    trace, metrics = loop_run_subgradient(problem, schedule, config)
    result = posthoc_result(problem, cfg, metrics, trace.worst_errors, trace.converged_at)
    # a long budget writes a curve of 2,000 to 4,000 rows, ending at the stop
    result.metrics = thin(metrics, max(1, cfg.max_iters // 2000))
    return result


@contextmanager
def posthoc_harness():
    """Inside the block, every harness runner searches its crossings after the
    run, and a subgradient cell runs the one-run loop and thins its curve."""
    with mock.patch.object(harness, "_result", posthoc_result), \
            mock.patch.dict(harness.ALGORITHMS, subgrad=posthoc_run_subgrad):
        yield


def rowwise_write_metrics_csv(metrics: Metrics, path: str, extra_columns=()) -> None:
    """The curve file written one dict per row, one field at a time."""
    cols = METRICS_COLUMNS + list(extra_columns)
    write_csv(path, cols, ([row.get(c) for c in cols] for row in metrics.per_iteration))


@contextmanager
def cbdiht_settings(steps=None, checked=True):
    """Inside the block, run_cbdiht grants outer iteration k steps(k, x_k)
    averaging steps (None: consensus_steps), and with checked off it runs on
    a schedule that validate_connectivity_window would reject."""
    with ExitStack() as stack:
        if steps is not None:
            stack.enter_context(mock.patch.object(cbdiht, "consensus_steps", steps))
        if not checked:
            stack.enter_context(mock.patch.object(
                cbdiht, "validate_connectivity_window", lambda schedule: 0))
        yield
