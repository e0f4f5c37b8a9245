"""Experiment orchestration: config files, run grids, and report files.

A config names one problem family, a set of graph families with seeds, the
algorithms to run, and the accuracy targets.  Every run is replayable from
the recorded seeds; reports come out as machine-readable CSV plus an
aggregate table in the usual rows-are-graphs layout.
"""
from __future__ import annotations

import configparser
import hashlib
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import cbdiht as cbdiht_mod
from . import subgradient as subgrad_mod
from .diht import (Metrics, StopRule, default_step_constant,
                   iht_trajectory, run_diht, write_metrics_csv)
from .graphs import (AssumptionViolation, Graph, TvSchedule, check_graph_args,
                     check_subgraph_count, gen_barabasi_albert, gen_erdos_renyi,
                     gen_geometric, gen_tv_schedule, static_schedule)
from .iht import IhtTrace, NumericFailure, truth_bound, write_csv
from .iht import run_iht  # noqa: F401  rebound by perfbench's traced pass
from .model import Problem, check_problem_args, generate_problem
from .model import loss_info  # noqa: F401  rebound by perfbench's traced pass

CONFIG_SCHEMA_VERSION = 1
# a time-varying cell's schedule seed is its graph seed plus this offset
SCHEDULE_SEED_OFFSET = 1000

FAMILY_BUILDERS = {
    "ba": lambda p, param, seed: gen_barabasi_albert(p, int(param), seed),
    "er": lambda p, param, seed: gen_erdos_renyi(p, float(param), seed),
    "geo": lambda p, param, seed: gen_geometric(p, float(param), seed),
}


@dataclass
class GraphSpec:
    family: str
    param: float

    @property
    def label(self) -> str:
        return f"{self.family}{self.param:g}"

    def check(self, p: int) -> None:
        """Raise ValueError unless build can draw this family on p vertices."""
        if self.family not in FAMILY_BUILDERS:
            raise ValueError(f"unknown graph family {self.family!r}")
        check_graph_args(self.family, p, self.param)

    def build(self, p: int, seed: int) -> Graph:
        self.check(p)
        return FAMILY_BUILDERS[self.family](p, self.param, seed)


def parse_graph_token(token: str) -> GraphSpec:
    """Accept 'family:param' tokens such as ba:3, er:0.25, geo:0.75."""
    family, _, param = token.strip().partition(":")
    if not param:
        raise ValueError(f"graph token {token!r} must look like family:param")
    return GraphSpec(family=family.strip(), param=float(param))


@dataclass
class ExperimentConfig:
    n: int = 100
    m: int = 50
    k: int = 5
    p: int = 10
    noise_std: float = 0.0
    spectral_cap: float = 0.99
    ensemble: str = "tight-frame"  # flat spectrum: recovers reliably at desk sizes
    problem_seeds: list = field(default_factory=lambda: [0])
    graphs: list = field(default_factory=lambda: [GraphSpec("er", 0.25)])
    graph_seeds: list = field(default_factory=lambda: [0])
    algorithms: list = field(default_factory=lambda: ["diht"])
    l: Optional[float] = None
    l_tv: Optional[float] = None
    step_exponent: float = 0.7
    accuracies: list = field(default_factory=lambda: [1e-2, 1e-5])
    max_iters: int = 200_000
    time_varying: bool = False
    subgraph_count: int = 10
    out_dir: str = "out"
    raw_text: str = ""

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_text.encode()).hexdigest()[:16]


def _csv(convert):
    return lambda text: [convert(t) for t in text.split(",")]


def _step_constant(text: str) -> Optional[float]:
    return None if text.strip() == "auto" else float(text)


def _boolean(text: str) -> bool:
    if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"not a boolean: {text!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


# every key a config file may set, with its parser; the schema version is
# checked on its own
CONFIG_KEYS = {
    "meta": {"schema_version": None},
    "problem": {"n": int, "m": int, "k": int, "p": int, "noise_std": float,
                "spectral_cap": float, "ensemble": str, "seeds": _csv(int)},
    "graphs": {"families": _csv(parse_graph_token), "seeds": _csv(int)},
    "algorithms": {"run": _csv(str.strip), "l": _step_constant,
                   "l_tv": _step_constant, "step_exponent": float},
    "run": {"accuracies": _csv(float), "max_iters": int,
            "time_varying": _boolean, "subgraph_count": int},
    "output": {"dir": str},
}
# keys whose ExperimentConfig field has another name
CONFIG_FIELDS = {("problem", "seeds"): "problem_seeds",
                 ("graphs", "seeds"): "graph_seeds", ("graphs", "families"): "graphs",
                 ("algorithms", "run"): "algorithms", ("output", "dir"): "out_dir"}


def check_config(cfg: ExperimentConfig) -> None:
    """Raise a one-line ValueError naming a value the grid cannot run or report:
    an unknown algorithm or graph, a repeated grid entry, an accuracy or a
    step constant l or l_tv (when set) that is not finite and positive, or a
    budget, subgraph count or step exponent the runs reject."""
    unknown = [a for a in cfg.algorithms if a not in ALGORITHMS]
    if unknown:
        raise ValueError(f"unknown algorithm {unknown[0]!r}")
    for spec in cfg.graphs:
        spec.check(cfg.p)
    for what, values in [("graphs", [spec.label for spec in cfg.graphs]),
                         ("problem seeds", cfg.problem_seeds),
                         ("graph seeds", cfg.graph_seeds), ("algorithms", cfg.algorithms),
                         ("accuracies", cfg.accuracies)]:
        if len(set(values)) < len(values):
            raise ValueError(f"repeated {what}: {values}")
    if not all(0 < acc < np.inf for acc in cfg.accuracies):
        raise ValueError(f"accuracies {cfg.accuracies} must be positive and finite")
    for key, value in [("l", cfg.l), ("l_tv", cfg.l_tv)]:
        if value is not None and not 0 < value < np.inf:
            raise ValueError(f"{key} = {value} must be finite and positive")
    subgrad_mod.SubgradConfig(step_exponent=cfg.step_exponent, max_iters=cfg.max_iters)
    check_subgraph_count(cfg.subgraph_count)


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse an INI experiment config.  Malformed text, unknown sections and
    keys, a [problem] that cannot be built and whatever check_config rejects
    raise a one-line ValueError that names them."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
        sections = {name: dict(cp[name]) for name in cp.sections()}
    except configparser.Error as exc:  # its messages span several lines
        raise ValueError(" ".join(str(exc).split())) from None
    version = cp.getint("meta", "schema_version", fallback=None)
    if version != CONFIG_SCHEMA_VERSION:
        raise ValueError(f"config schema_version must be {CONFIG_SCHEMA_VERSION}")
    cfg = ExperimentConfig(raw_text=text)
    for section, items in sections.items():
        if section not in CONFIG_KEYS:
            raise ValueError(f"unknown config section [{section}]")
        for key, value in items.items():
            if key not in CONFIG_KEYS[section]:
                raise ValueError(f"unknown key {key!r} in config section [{section}]")
            if section != "meta":
                setattr(cfg, CONFIG_FIELDS.get((section, key), key),
                        CONFIG_KEYS[section][key](value))
    check_problem_args(cfg.n, cfg.m, cfg.k, cfg.p, cfg.noise_std, cfg.spectral_cap,
                       cfg.ensemble)
    check_config(cfg)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config_text(fh.read())


@dataclass
class RunCell:
    graph: str
    graph_seed: int
    problem_seed: int
    algorithm: str
    accuracy: float
    converged: bool
    iterations: int
    values: int
    messages: int
    broadcasts: int
    time_steps: int
    error: str = ""  # populated when the constituent run failed


@dataclass
class Report:
    cells: list = field(default_factory=list)
    curves: dict = field(default_factory=dict)  # run label -> (Metrics, extras)
    config_hash: str = ""
    seeds: dict = field(default_factory=dict)

    def aggregate_rows(self) -> list:
        groups: dict = {}
        for c in self.cells:
            groups.setdefault((c.graph, c.algorithm, c.accuracy), []).append(c)
        rows = []
        for (graph, algo, acc), cells in sorted(groups.items()):
            row = {"graph": graph, "algorithm": algo, "accuracy": acc,
                   "values": float("nan"), "time_steps": float("nan"),
                   "converged_fraction": 0.0}
            ok = [c for c in cells if not c.error]
            if ok:
                row.update(values=float(np.mean([c.values for c in ok])),
                           time_steps=float(np.mean([c.time_steps for c in ok])),
                           converged_fraction=sum(c.converged for c in ok) / len(ok))
            rows.append(row)
        return rows


@dataclass
class RunResult:
    """What every registry runner returns.  Counters are (iterations, values,
    messages, broadcasts, time_steps): at the first crossing of each accuracy
    reached, and when the run stopped."""

    metrics: Metrics
    crossings: dict  # accuracy -> counters at its first crossing
    spent: tuple
    converged_at: Optional[int]  # CB-DIHT: every agent within the tolerance
    extra_columns: tuple = ()
    trace: Optional[IhtTrace] = None  # iht only: the records, with only the last iterate


def _result(problem: Problem, cfg: ExperimentConfig, metrics: Metrics, errors,
            converged_at, extra_columns=(), trace=None) -> RunResult:
    """Crossings of `errors`, the error after each iteration: a target is first
    met where their running minimum meets it, and no later than the stop."""
    best = np.minimum.accumulate(np.nan_to_num(errors, nan=np.inf))
    targets = np.array([truth_bound(problem.x_star, acc) for acc in cfg.accuracies])
    first = np.searchsorted(-best, -targets) + 1  # past the last iteration: never
    if converged_at is not None:
        first = np.minimum(first, converged_at)
    crossed = {acc: t for acc, t in zip(cfg.accuracies, first.tolist()) if t <= len(errors)}
    return RunResult(metrics, _crossings(metrics, crossed), (len(errors), *metrics.totals),
                     converged_at, extra_columns, trace)


def _crossings(metrics: Metrics, crossed: dict) -> dict:
    """accuracy -> the counters at `crossed[accuracy]`, its first iteration within."""
    return {acc: (t, *metrics.counters(t).tolist()) for acc, t in crossed.items()}


def _stop(cfg: ExperimentConfig) -> StopRule:
    return StopRule(tol=min(cfg.accuracies), max_iters=cfg.max_iters)


def _run_iht(problem, schedule, cfg) -> RunResult:
    l = cfg.l if cfg.l is not None else default_step_constant(problem)
    trace, _ = iht_trajectory(problem, l, _stop(cfg), keep_iterates=False)  # DIHT's
    errors = trace.errors_vs_truth[1:]  # error after each iteration
    metrics = Metrics.from_costs(errors, ())  # nothing is sent
    return _result(problem, cfg, metrics, errors, trace.converged_at, trace=trace)


def _run_diht(problem, schedule, cfg) -> RunResult:
    if cfg.time_varying:
        raise ValueError("the tree-based algorithm needs a static network")
    run = run_diht(problem, schedule.base, l=cfg.l, stop=_stop(cfg), keep_iterates=False)
    return _result(problem, cfg, run.metrics, run.trace.errors_vs_truth[1:],
                   run.trace.converged_at)


def _run_cbdiht(problem, schedule, cfg) -> RunResult:
    run = cbdiht_mod.run_cbdiht(problem, schedule, l_tv=cfg.l_tv, stop=_stop(cfg),
                                keep_iterates=False)
    # err is agent 0's error; the crossings are the worst agent's
    run.metrics.columns["worst_err"] = np.asarray(run.worst_errors, dtype=float)
    return _result(problem, cfg, run.metrics, run.worst_errors,
                   run.global_converged_at,
                   ("worst_err", "outer_iter", "s_k", "eps_norm_sq", "initiated_count"))


def _subgrad_results(members: list, cfg: ExperimentConfig):
    """Each lockstep member's RunResult, in order, its curve at most 4,000 rows."""
    config = subgrad_mod.SubgradConfig(step_exponent=cfg.step_exponent,
                                       max_iters=cfg.max_iters, tol=min(cfg.accuracies))
    for trace, metrics in subgrad_mod.run_lockstep(members, config, cfg.accuracies,
                                                   max(1, cfg.max_iters // 2000)):
        yield RunResult(metrics, _crossings(metrics, trace.crossed_at),
                        (trace.converged_at or cfg.max_iters, *metrics.totals),
                        trace.converged_at)


def _run_subgrad(problem, schedule, cfg) -> RunResult:
    slices = subgrad_mod.orthonormal_slices(problem)
    return next(_subgrad_results([(problem, schedule, slices)], cfg))


# name -> runner(problem, schedule, cfg) -> RunResult
ALGORITHMS = {"iht": _run_iht, "diht": _run_diht, "cbdiht": _run_cbdiht,
              "subgrad": _run_subgrad}


def _network(p: int, spec: GraphSpec, graph_seed: int, cfg: ExperimentConfig) -> TvSchedule:
    """A cell's network: a periodic schedule drawn from its graph when the
    config is time-varying, else the graph as a one-phase schedule."""
    graph = spec.build(p, graph_seed)
    return (gen_tv_schedule(graph, cfg.subgraph_count, graph_seed + SCHEDULE_SEED_OFFSET)
            if cfg.time_varying else static_schedule(graph))


def _runner(algorithm: str):
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return ALGORITHMS[algorithm]


def run_cell(problem: Problem, spec: GraphSpec, graph_seed: int, algorithm: str,
             cfg: ExperimentConfig) -> RunResult:
    """One (graph instance, algorithm) run of the grid."""
    return _runner(algorithm)(problem, _network(problem.p, spec, graph_seed, cfg), cfg)


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Execute the full (problem seed x graph x graph seed x algorithm) grid,
    each network built once.  The subgradient cells run last, in one lockstep
    batch per (p, n, m_max, period).  A network or run that fails on its
    input or its numerics is captured in its cells rather than aborting the
    experiment; any other exception propagates."""
    report = Report(config_hash=cfg.config_hash,
                    seeds={"problem": list(cfg.problem_seeds),
                           "graph": list(cfg.graph_seeds)})
    networks = []  # (graph, graph seed, its network or its build's error text)
    for spec in cfg.graphs:
        for gseed in cfg.graph_seeds:
            try:
                networks.append((spec, gseed, _network(cfg.p, spec, gseed, cfg)))
            except (ValueError, NumericFailure, AssumptionViolation) as exc:
                networks.append((spec, gseed, f"{type(exc).__name__}: {exc}"))
    # cells: [label, graph seed, problem seed, algorithm, RunResult or error text]
    cells, batches = [], {}  # (orthonormal stack shape, period) -> [(cell, member)]
    for pseed in cfg.problem_seeds:
        problem = generate_problem(cfg.n, cfg.m, cfg.k, cfg.p, cfg.noise_std,
                                   cfg.spectral_cap, pseed, cfg.ensemble)
        slices = None
        for spec, gseed, network in networks:
            for algo in cfg.algorithms:
                cells.append([spec.label, gseed, pseed, algo, network])
                try:
                    runner = _runner(algo)  # an unknown algorithm is reported first
                    if isinstance(network, str):  # the build raised
                        continue
                    if algo != "subgrad":
                        cells[-1][-1] = runner(problem, network, cfg)
                        continue
                    slices = slices or subgrad_mod.orthonormal_slices(problem)
                    batches.setdefault((slices[0].shape, network.period), []).append(
                        (cells[-1], (problem, network, slices)))
                except (ValueError, NumericFailure, AssumptionViolation) as exc:
                    cells[-1][-1] = f"{type(exc).__name__}: {exc}"
    for group in batches.values():
        for (cell, _), result in zip(group, _subgrad_results([m for _, m in group], cfg)):
            cell[-1] = result

    for label, gseed, pseed, algo, result in cells:
        if isinstance(result, str):
            report.cells.extend(RunCell(label, gseed, pseed, algo, acc, False,
                                        0, 0, 0, 0, 0, error=result)
                                for acc in cfg.accuracies)
            continue
        for acc in cfg.accuracies:
            hit = result.crossings.get(acc)
            report.cells.append(RunCell(label, gseed, pseed, algo, acc, hit is not None,
                                        *(hit or result.spent)))
        report.curves[f"{label}-g{gseed}-p{pseed}-{algo}"] = (result.metrics,
                                                              result.extra_columns)
    return report


RUN_CSV_COLUMNS = ["graph", "graph_seed", "problem_seed", "algorithm",
                   "accuracy", "converged", "iterations", "values", "messages",
                   "broadcasts", "time_steps", "error"]
AGGREGATE_CSV_COLUMNS = ["graph", "algorithm", "accuracy", "values",
                         "time_steps", "converged_fraction"]


def write_report(report: Report, out_dir: str) -> list:
    """Write runs.csv, aggregate.csv, table.csv, per-run curves, provenance.

    Returns the list of files written.  Cells that hit the budget keep the
    counts actually spent, so their rows read as lower bounds.
    """
    curves_dir = os.path.join(out_dir, "curves")
    os.makedirs(curves_dir, exist_ok=True)
    rows = report.aggregate_rows()
    # wide table: one row per graph family, one column per algorithm/accuracy,
    # a ">" marking budget-limited (lower bound) counts
    combos = sorted({(r["algorithm"], r["accuracy"]) for r in rows})
    table = {(r["graph"], r["algorithm"], r["accuracy"]):
             f"{'' if r['converged_fraction'] == 1.0 else '>'}{r['values']:.6g}"
             for r in rows}

    written = []
    for name, header, body in [
            ("runs.csv", RUN_CSV_COLUMNS,
             ([getattr(c, col) for col in RUN_CSV_COLUMNS] for c in report.cells)),
            ("aggregate.csv", AGGREGATE_CSV_COLUMNS,
             ([r[col] for col in AGGREGATE_CSV_COLUMNS] for r in rows)),
            ("table.csv", ["graph"] + [f"{a}@{acc:g}" for a, acc in combos],
             ([g] + [table.get((g, a, acc)) for a, acc in combos]
              for g in sorted({r["graph"] for r in rows})))]:
        path = os.path.join(out_dir, name)
        write_csv(path, header, body)
        written.append(path)

    for label in sorted(report.curves):
        metrics, extra = report.curves[label]
        path = os.path.join(curves_dir, f"{label}.csv")
        write_metrics_csv(metrics, path, extra_columns=extra)
        written.append(path)

    path = os.path.join(out_dir, "provenance.txt")
    with open(path, "w") as fh:
        fh.write(f"config_hash={report.config_hash}\n")
        for kind in sorted(report.seeds):
            fh.write(f"seeds_{kind}={','.join(map(str, report.seeds[kind]))}\n")
    written.append(path)
    return written
