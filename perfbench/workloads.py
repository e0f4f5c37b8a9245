"""The benchmark's workloads: how each builds its inputs, runs one pass, and is checked.

Every workload drives the library only through its public API.  A pass is a
fixed set of runs; each run stops at its accuracy target or its budget.  A
run's record holds the simulated counters, which must repeat exactly: against
the recorded reference at the default seed, and against the closed forms of
the accounting (see the package README) at any seed.

The workload seed draws the networks: graphs, schedules and, for the desk
grid, its graph seeds.  The problem instances are the first problem seeds.
Iterations to 1e-5 follow the problem (they vary by about 13% between
problems, and CB-DIHT's step count by about 20%), so fresh problems per seed
would swing the pass time far more than the code under test does.
"""
from __future__ import annotations

import os
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import distiht  # noqa: E402
from distiht import cbdiht, diht, graphs, harness, iht, model, subgradient  # noqa: E402

DESK_CONFIG = ROOT / "configs" / "desk.ini"
ACCURACY = 1e-5  # the paper's tightest target, relative to ||x*||
FINAL_ERR_TOL = 1e-10  # allowed drift of the relative final error from the reference


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark configuration."""

    n: int
    m: int
    k: int
    p: int
    static_problems: int  # problem instances in a paper-static pass
    tv_problems: int  # problem instances in a paper-tv pass
    subgrad_iters: int  # iteration budget of the paper-subgrad run
    desk_budget: int  # max_iters the desk grid is cut to
    desk_families: int = 0  # 0 keeps every graph family of the desk config
    micro_sample_s: float = 0.02  # shortest batch a micro-benchmark sample times


# The paper's table scale (N=1000, M=200, K=3, P=50).  Passes are kept short
# so that every run is timed many times within one measurement: on a shared
# machine only the fastest of many repeats is steady.
PAPER = Scale(n=1000, m=200, k=3, p=50, static_problems=2, tv_problems=2,
              subgrad_iters=200, desk_budget=300)
SMOKE = Scale(n=60, m=20, k=2, p=5, static_problems=2, tv_problems=2,
              subgrad_iters=50, desk_budget=50, desk_families=2, micro_sample_s=0.001)


def library_location() -> str:
    return os.path.dirname(os.path.abspath(distiht.__file__))


@dataclass
class RunRecord:
    """What one run produced; every field but ``violations`` must repeat exactly."""

    name: str
    iterations: int
    values: int
    messages: int
    broadcasts: int
    time_steps: int
    final_err: float  # ||x - x*|| / ||x*|| when the run stopped
    converged: bool
    cells: list = field(default_factory=list)  # desk only, one row per accuracy
    joined_fraction: float | None = None  # CB-DIHT: mean initiated agents / p
    violations: list = field(default_factory=list)

    def key(self) -> tuple:
        return (self.name, self.iterations, self.values, self.messages,
                self.broadcasts, self.time_steps, self.final_err, self.converged,
                [list(c) for c in self.cells], self.joined_fraction)

    def to_json(self) -> dict:
        return {"name": self.name, "iterations": self.iterations,
                "values": self.values, "messages": self.messages,
                "broadcasts": self.broadcasts, "time_steps": self.time_steps,
                "final_err": self.final_err, "converged": self.converged,
                "cells": [list(c) for c in self.cells]}


def _failed(name: str, exc: BaseException) -> RunRecord:
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return RunRecord(name, 0, 0, 0, 0, 0, float("nan"), False,
                     violations=[f"raised {type(exc).__name__}: {exc} "
                                 f"({where.filename}:{where.lineno})"])


def _expect(rec: RunRecord, **want) -> None:
    for key, value in want.items():
        got = getattr(rec, key)
        if got != value:
            rec.violations.append(f"{key} {got} != closed form {value}")


def _diht_closed_form(iters: int, n: int, k: int, p: int, edges: int) -> dict:
    # per iteration (P-1)(2K+N) values and 2(P-1) messages, plus the
    # 2|E|-(P-1) messages that build the tree
    return {"values": iters * (p - 1) * (2 * k + n),
            "messages": 2 * iters * (p - 1) + 2 * edges - (p - 1)}


def _subgrad_closed_form(iters: int, n: int, edges: int) -> dict:
    # static network: 2|E| vectors of N values per iteration, one step each
    return {"values": iters * 2 * edges * n, "messages": iters * 2 * edges,
            "time_steps": iters}


def _rel_err(x, x_star) -> float:
    return float(np.linalg.norm(x - x_star) / np.linalg.norm(x_star))


def _seeds(seed: int, count: int) -> list:
    return [seed * count + i for i in range(count)]


def _tight_frame(scale: Scale, seed: int) -> model.Problem:
    return model.generate_problem(scale.n, scale.m, scale.k, scale.p, seed=seed,
                                  ensemble="tight-frame")


def _timed(out: list, name: str, fn) -> None:
    """Run one unit of a pass; a raising run is a failed run, not a crash."""
    t0 = perf_counter()
    try:
        result = fn()
    except Exception as exc:
        result = exc
    out.append((name, result, perf_counter() - t0))


class Workload:
    name = ""

    def build(self, seed: int, scale: Scale, out_dir: str):
        """The pass's inputs; this is what ``setup_s`` times."""
        raise NotImplementedError

    def warm_inputs(self, inputs):
        """A one-run slice of the inputs, used to warm up at workload size."""
        raise NotImplementedError

    def solve(self, inputs) -> list:
        """One pass, as ``(name, result or exception, seconds)`` per timed unit."""
        raise NotImplementedError

    def records(self, inputs, raw) -> list:
        """Turn a pass's raw results into records with closed-form checks."""
        raise NotImplementedError


@dataclass
class StaticInputs:
    problems: list
    networks: list  # per problem: [(label, graph), ...]


class PaperStatic(Workload):
    """DIHT and centralized IHT to 1e-5 on ER 0.25, BA 3 and geo 0.5 graphs."""

    name = "paper-static"
    # IHT reaches 1e-5 within 109 iterations on 499 of 500 problem seeds;
    # the budget caps what a problem it cannot recover costs a pass
    max_iters = 150

    def build(self, seed, scale, out_dir):
        problems = [_tight_frame(scale, s) for s in range(scale.static_problems)]
        networks = [[("er0.25", graphs.gen_erdos_renyi(scale.p, 0.25, s)),
                     ("ba3", graphs.gen_barabasi_albert(scale.p, 3, s)),
                     ("geo0.5", graphs.gen_geometric(scale.p, 0.5, s))]
                    for s in _seeds(seed, scale.static_problems)]
        return StaticInputs(problems, networks)

    def warm_inputs(self, inputs):
        return StaticInputs(inputs.problems[:1], [inputs.networks[0][:1]])

    def solve(self, inputs):
        out = []
        stop = diht.StopRule(tol=ACCURACY, max_iters=self.max_iters)
        for prob, nets in zip(inputs.problems, inputs.networks):
            _timed(out, f"p{prob.seed}/iht", lambda: self._iht(prob))
            for label, g in nets:
                _timed(out, f"p{prob.seed}/diht/{label}",
                       lambda: diht.run_diht(prob, g, stop=stop, keep_iterates=False))
        return out

    def _iht(self, prob):
        a, b = prob.stacked()
        l = 1.005 * model.loss_info(prob).lipschitz_global
        config = iht.IhtConfig(l=l, k=prob.k, max_iters=self.max_iters, tol=ACCURACY,
                               x_init=np.zeros(prob.n))
        return iht.run_iht(lambda x: 2.0 * (a.T @ (a @ x - b)), prob.x_star, config)

    def records(self, inputs, raw):
        edges = {f"p{prob.seed}/diht/{label}": g.num_edges
                 for prob, nets in zip(inputs.problems, inputs.networks)
                 for label, g in nets}
        x_stars = {f"p{prob.seed}": prob.x_star for prob in inputs.problems}
        prob0 = inputs.problems[0]
        recs = []
        for name, res, _secs in raw:
            if isinstance(res, BaseException):
                recs.append(_failed(name, res))
                continue
            x_star = x_stars[name.split("/")[0]]
            if name.endswith("/iht"):
                trace = res
                rec = RunRecord(name, len(trace.step_deltas), 0, 0, 0, 0,
                                _rel_err(trace.final, x_star),
                                trace.converged_at is not None)
                _expect(rec, values=0, messages=0, broadcasts=0, time_steps=0)
            else:
                m = res.metrics
                rec = RunRecord(name, len(res.trace.step_deltas), m.values_sent,
                                m.messages_sent, m.broadcasts, m.time_steps,
                                _rel_err(res.trace.final, x_star),
                                res.trace.converged_at is not None)
                _expect(rec, **_diht_closed_form(rec.iterations, prob0.n, prob0.k,
                                                 prob0.p, edges[name]))
            recs.append(rec)
        return recs


@dataclass
class TvInputs:
    problems: list
    schedules: list


class PaperTv(Workload):
    """CB-DIHT for 50 outer iterations on 10-subgraph schedules drawn from ER 0.25."""

    name = "paper-tv"
    # Outer iterations.  Reaching 1e-5 for all agents takes 53 to 88 of them
    # and s_k grows with k, so a run to 1e-5 lasts about a second, and its
    # step count moves by 8% with the schedule; a budget-stopped run repeats
    # its step count on every schedule and is short enough to be timed many
    # times.  At 50, averaging steps are still over 80% of the run.
    max_iters = 50

    def build(self, seed, scale, out_dir):
        problems = [_tight_frame(scale, s) for s in range(scale.tv_problems)]
        schedules = [graphs.gen_tv_schedule(graphs.gen_erdos_renyi(scale.p, 0.25, s),
                                            10, s + 1000)
                     for s in _seeds(seed, scale.tv_problems)]
        return TvInputs(problems, schedules)

    def warm_inputs(self, inputs):
        return TvInputs(inputs.problems[:1], inputs.schedules[:1])

    def solve(self, inputs):
        out = []
        stop = diht.StopRule(tol=ACCURACY, max_iters=self.max_iters)
        for prob, sched in zip(inputs.problems, inputs.schedules):
            _timed(out, f"p{prob.seed}/cbdiht/er0.25",
                   lambda: cbdiht.run_cbdiht(prob, sched, stop=stop, keep_iterates=False))
        return out

    def records(self, inputs, raw):
        recs = []
        for (name, res, _secs), prob in zip(raw, inputs.problems):
            if isinstance(res, BaseException):
                recs.append(_failed(name, res))
                continue
            m = res.metrics
            worst = res.worst_errors[-1] / np.linalg.norm(prob.x_star)
            rec = RunRecord(name, len(res.s_schedule), m.values_sent, m.messages_sent,
                            m.broadcasts, m.time_steps, float(worst),
                            res.global_converged_at is not None,
                            joined_fraction=float(np.mean(res.initiated_counts)) / prob.p)
            _expect(rec, time_steps=sum(res.s_schedule))
            recs.append(rec)
        return recs


@dataclass
class SubgradInputs:
    problem: model.Problem
    graph: graphs.Graph
    iters: int


class PaperSubgrad(Workload):
    """The projected subgradient on ER 0.25 with a fixed iteration budget."""

    name = "paper-subgrad"

    def build(self, seed, scale, out_dir):
        return SubgradInputs(_tight_frame(scale, 0),
                             graphs.gen_erdos_renyi(scale.p, 0.25, seed),
                             scale.subgrad_iters)

    def warm_inputs(self, inputs):
        return replace(inputs, iters=max(1, inputs.iters // 10))

    def solve(self, inputs):
        config = subgradient.SubgradConfig(step_exponent=0.8, max_iters=inputs.iters,
                                           tol=1e-2)
        out = []
        _timed(out, f"p{inputs.problem.seed}/subgrad/er0.25",
               lambda: subgradient.run_subgradient(inputs.problem, inputs.graph, config))
        return out

    def records(self, inputs, raw):
        recs = []
        prob = inputs.problem
        for name, res, _secs in raw:
            if isinstance(res, BaseException):
                recs.append(_failed(name, res))
                continue
            trace, m = res
            rec = RunRecord(name, len(trace.worst_errors), m.values_sent,
                            m.messages_sent, m.broadcasts, m.time_steps,
                            trace.worst_errors[-1] / float(np.linalg.norm(prob.x_star)),
                            trace.converged_at is not None)
            _expect(rec, **_subgrad_closed_form(rec.iterations, prob.n,
                                                inputs.graph.num_edges))
            recs.append(rec)
        return recs


@dataclass
class DeskInputs:
    config: harness.ExperimentConfig
    out_dir: str


class DeskGrid(Workload):
    """run_experiment plus write_report on configs/desk.ini with a cut budget."""

    name = "desk-grid"

    def build(self, seed, scale, out_dir):
        cfg = harness.load_config(str(DESK_CONFIG))
        cfg.max_iters = scale.desk_budget
        # the problem seeds stay the file's: the grid is the experiment a
        # user runs, and one desk-size problem in about 75 is not
        # recoverable by IHT, which would cost that seed the whole budget
        cfg.graph_seeds = [s + seed * len(cfg.graph_seeds) for s in cfg.graph_seeds]
        if scale.desk_families:
            cfg.problem_seeds = cfg.problem_seeds[:2]
            cfg.graph_seeds = cfg.graph_seeds[:1]
            cfg.graphs = cfg.graphs[:scale.desk_families]
        return DeskInputs(cfg, out_dir)

    def warm_inputs(self, inputs):
        cfg = replace(inputs.config, problem_seeds=inputs.config.problem_seeds[:1],
                      graph_seeds=inputs.config.graph_seeds[:1],
                      graphs=inputs.config.graphs[:1])
        return DeskInputs(cfg, inputs.out_dir)

    def solve(self, inputs):
        # Problem seeds and graph families are the grid's two outer loops, so
        # one run_experiment per (problem seed, family), concatenated in that
        # order, is the report of the whole grid, and solve_s can take each
        # part's fastest time on its own.
        cfg = inputs.config
        report = harness.Report(config_hash=cfg.config_hash,
                                seeds={"problem": list(cfg.problem_seeds),
                                       "graph": list(cfg.graph_seeds)})
        out = []
        for pseed in cfg.problem_seeds:
            for spec in cfg.graphs:
                part_cfg = replace(cfg, problem_seeds=[pseed], graphs=[spec])
                _timed(out, f"run_experiment/p{pseed}/{spec.label}",
                       lambda: harness.run_experiment(part_cfg))
                part = out[-1][1]
                if not isinstance(part, BaseException):
                    report.cells.extend(part.cells)
                    report.curves.update(part.curves)
        _timed(out, "write_report", lambda: self._write(report, inputs.out_dir))
        return out

    @staticmethod
    def _write(report, out_dir: str):
        harness.write_report(report, out_dir)
        return report

    def records(self, inputs, raw):
        raised = [_failed(name, res) for name, res, _secs in raw
                  if isinstance(res, BaseException)]
        if raised:
            return raised
        report, cfg = raw[-1][1], inputs.config
        norms = {s: float(np.linalg.norm(model.generate_problem(
                     cfg.n, cfg.m, cfg.k, cfg.p, cfg.noise_std, cfg.spectral_cap, s,
                     cfg.ensemble).x_star)) for s in cfg.problem_seeds}
        edges = {(spec.label, g): spec.build(cfg.p, g).num_edges
                 for spec in cfg.graphs for g in cfg.graph_seeds}
        cells: dict = {}
        for c in report.cells:
            label = f"{c.graph}-g{c.graph_seed}-p{c.problem_seed}-{c.algorithm}"
            cells.setdefault(label, []).append(c)
        recs = []
        for label, group in cells.items():
            c0 = group[0]
            errors = [c.error for c in group if c.error]
            if errors or label not in report.curves:
                recs.append(RunRecord(label, 0, 0, 0, 0, 0, float("nan"), False,
                                      violations=errors or ["no curve recorded"]))
                continue
            rows = report.curves[label][0].per_iteration
            last = rows[-1]
            joined = None
            if c0.algorithm == "cbdiht":
                joined = float(np.mean([r["initiated_count"] for r in rows])) / cfg.p
            rec = RunRecord(label, last["iter"], last["values_cum"],
                            last["messages_cum"], last["broadcasts_cum"],
                            last["time_steps_cum"], last["err"] / norms[c0.problem_seed],
                            all(c.converged for c in group),
                            cells=[[c.accuracy, c.converged, c.iterations, c.values,
                                    c.messages, c.broadcasts, c.time_steps]
                                   for c in group],
                            joined_fraction=joined)
            n_edges = edges[(c0.graph, c0.graph_seed)]
            for row in [rec] + [_cell_view(rec, c) for c in group]:
                if c0.algorithm == "iht":
                    want = {"values": 0, "messages": 0, "broadcasts": 0, "time_steps": 0}
                elif c0.algorithm == "diht":
                    want = _diht_closed_form(row.iterations, cfg.n, cfg.k, cfg.p, n_edges)
                elif c0.algorithm == "subgrad":
                    want = _subgrad_closed_form(row.iterations, cfg.n, n_edges)
                else:  # cbdiht: one step per averaging step granted
                    want = {"time_steps": sum(r["s_k"] for r in rows[:row.iterations])}
                _expect(row, **want)
                if row is not rec:
                    rec.violations.extend(f"cell {row.name}: {v}" for v in row.violations)
            recs.append(rec)
        return recs


def _cell_view(rec: RunRecord, cell) -> RunRecord:
    return RunRecord(f"{rec.name}@{cell.accuracy:g}", cell.iterations, cell.values,
                     cell.messages, cell.broadcasts, cell.time_steps, rec.final_err,
                     cell.converged)


WORKLOADS = {w.name: w for w in (PaperStatic(), PaperTv(), PaperSubgrad(), DeskGrid())}


def check_reference(records: list, reference: list) -> None:
    """Add a violation to every record that differs from the recorded reference."""
    ref = {r["name"]: r for r in reference}
    for rec in records:
        want = ref.get(rec.name)
        if want is None:
            rec.violations.append("run missing from the reference")
            continue
        got = rec.to_json()
        for key in ("iterations", "values", "messages", "broadcasts", "time_steps",
                    "converged", "cells"):
            if got[key] != want[key]:
                rec.violations.append(f"{key} {got[key]} != reference {want[key]}")
        if not abs(rec.final_err - want["final_err"]) <= FINAL_ERR_TOL:
            rec.violations.append(
                f"final error {rec.final_err!r} != reference {want['final_err']!r}")
    if len(ref) != len(records):
        records[0].violations.append(
            f"{len(records)} runs where the reference has {len(ref)}")


# Module-level names the run loops look up, rebound for a traced pass.  The
# span name is the layer and function the time is charged to.
TRACE_TARGETS = [
    (diht, "loss_gradient", "model.loss_gradient"),
    (cbdiht, "loss_gradient", "model.loss_gradient"),
    (model, "loss_info", "model.loss_info"),
    (diht, "loss_info", "model.loss_info"),
    (cbdiht, "loss_info", "model.loss_info"),
    (harness, "loss_info", "model.loss_info"),
    (harness, "generate_problem", "model.generate_problem"),
    (iht, "hard_threshold", "iht.hard_threshold"),
    (diht, "hard_threshold", "iht.hard_threshold"),
    (cbdiht, "hard_threshold", "iht.hard_threshold"),
    (iht, "run_iht", "iht.run_iht"),
    (harness, "run_iht", "iht.run_iht"),
    (harness, "gen_barabasi_albert", "graphs.gen_graph"),
    (harness, "gen_erdos_renyi", "graphs.gen_graph"),
    (harness, "gen_geometric", "graphs.gen_graph"),
    (diht, "bfs_spanning_tree", "graphs.bfs_spanning_tree"),
    (cbdiht, "validate_connectivity_window", "graphs.validate_connectivity_window"),
    (diht, "_tree_sum", "diht.tree_sum"),
    (diht, "run_diht", "diht.run_diht"),
    (harness, "run_diht", "diht.run_diht"),
    (cbdiht, "run_cbdiht", "cbdiht.run_cbdiht"),
    (subgradient, "metropolis_weights", "consensus.metropolis_weights"),
    (subgradient, "AffineProjector", "subgradient.AffineProjector"),
    (subgradient, "run_subgradient", "subgradient.run_subgradient"),
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "write_report", "harness.write_report"),
]
SPAN_NAMES = sorted({name for _m, _a, name in TRACE_TARGETS})
