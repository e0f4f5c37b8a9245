"""Command-line front end: generators, single runs, experiments, self-checks."""
from __future__ import annotations

import argparse
import sys

from . import verify as verify_mod
from .diht import write_metrics_csv
from .graphs import (AssumptionViolation, gen_tv_schedule, graph_from_text,
                     graph_to_text, schedule_to_text)
from .harness import (ALGORITHMS, FAMILY_BUILDERS, ExperimentConfig, GraphSpec,
                      check_config, load_config, run_cell, run_experiment, write_report)
from .iht import NumericFailure, write_trace_csv
from .model import ENSEMBLES, generate_problem, load_problem, save_problem


def _add_problem_args(sp):
    # the generator flags default to None, so that one given alongside
    # --problem shows; _get_problem fills in ExperimentConfig's defaults
    sp.add_argument("--problem", help="load a saved problem instead of generating")
    sp.add_argument("--n", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--p", type=int)
    sp.add_argument("--noise-std", type=float)
    sp.add_argument("--cap", type=float, help="spectral norm of A")
    sp.add_argument("--ensemble", choices=ENSEMBLES)
    sp.add_argument("--seed", type=int)


def _get_problem(args):
    """Load --problem, or generate from the generator flags; a generator flag
    given with --problem is rejected rather than ignored."""
    d = ExperimentConfig()
    defaults = {"n": d.n, "m": d.m, "k": d.k, "p": d.p, "noise_std": d.noise_std,
                "cap": d.spectral_cap, "ensemble": d.ensemble, "seed": 0}
    given = [name for name in defaults if getattr(args, name) is not None]
    if args.problem and given:
        flags = ", ".join("--" + name.replace("_", "-") for name in given)
        raise ValueError(f"--problem cannot be combined with the generator "
                         f"flags {flags}")
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    if args.problem:
        return load_problem(args.problem)
    return generate_problem(args.n, args.m, args.k, args.p, args.noise_std,
                            args.cap, args.seed, args.ensemble)


def _build_parser() -> argparse.ArgumentParser:
    defaults = ExperimentConfig()  # a flag that sets a config field defaults to it
    ap = argparse.ArgumentParser(prog="distiht",
                                 description="distributed sparse recovery simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen-problem", help="generate and save an instance")
    _add_problem_args(sp)
    sp.add_argument("--out", required=True, help="output .npz path")

    sp = sub.add_parser("gen-graph", help="generate and save a connected graph")
    sp.add_argument("--family", choices=list(FAMILY_BUILDERS), required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--param", type=float, required=True,
                    help="attachment count, edge probability, or radius")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("gen-schedule", help="derive a periodic schedule from a graph")
    sp.add_argument("--graph", required=True, help="edge-list file")
    sp.add_argument("--count", type=int, default=10)
    sp.add_argument("--retain", type=float, default=0.5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("run", help="run one algorithm on one instance")
    sp.add_argument("algorithm", choices=list(ALGORITHMS))
    _add_problem_args(sp)
    sp.add_argument("--family", choices=list(FAMILY_BUILDERS),
                    default=defaults.graphs[0].family)
    sp.add_argument("--param", type=float, default=defaults.graphs[0].param)
    sp.add_argument("--graph-seed", type=int, default=0)
    sp.add_argument("--tv", action="store_true",
                    help="run on a periodic schedule of --subgraphs subgraphs")
    sp.add_argument("--subgraphs", type=int, default=defaults.subgraph_count)
    sp.add_argument("--l", type=float, default=None)
    sp.add_argument("--l-tv", type=float, default=None)
    sp.add_argument("--step-exponent", type=float, default=defaults.step_exponent)
    sp.add_argument("--tol", type=float, default=1e-2)
    sp.add_argument("--max-iters", type=int, default=defaults.max_iters)
    sp.add_argument("--metrics-out", help="write the per-iteration metrics CSV")
    sp.add_argument("--trace-out", help="write the iterate trace CSV (iht only)")

    sp = sub.add_parser("experiment", help="run a config-file experiment grid")
    sp.add_argument("config", help="INI config file")
    sp.add_argument("--out", help="override the output directory")

    sp = sub.add_parser("verify", help="run built-in self-check suites")
    sp.add_argument("--suite", action="append",
                    help="suite name (repeatable); default: all")
    sp.add_argument("--out", help="directory for the evidence CSVs")
    return ap


def _cmd_run(args) -> int:
    """One cell of an experiment whose config comes from the flags."""
    if args.trace_out and args.algorithm != "iht":
        raise ValueError(f"--trace-out: {args.algorithm} keeps no iterate trace, "
                         "only iht does")
    problem = _get_problem(args)
    spec = GraphSpec(args.family, args.param)
    cfg = ExperimentConfig(  # a loaded problem sets the sizes
        n=problem.n, m=problem.m, k=problem.k, p=problem.p, noise_std=args.noise_std,
        spectral_cap=args.cap, ensemble=args.ensemble, problem_seeds=[args.seed],
        graphs=[spec], graph_seeds=[args.graph_seed], algorithms=[args.algorithm],
        l=args.l, l_tv=args.l_tv, step_exponent=args.step_exponent,
        accuracies=[args.tol], max_iters=args.max_iters, time_varying=args.tv,
        subgraph_count=args.subgraphs)
    check_config(cfg)
    result = run_cell(problem, spec, args.graph_seed, args.algorithm, cfg)
    iterations, values, messages, broadcasts, time_steps = result.spent
    print(f"{args.algorithm}: converged_at={result.converged_at} "
          f"iterations={iterations} values={values} messages={messages} "
          f"broadcasts={broadcasts} time_steps={time_steps}")
    if args.metrics_out:
        write_metrics_csv(result.metrics, args.metrics_out,
                          extra_columns=result.extra_columns)
    if args.trace_out:
        write_trace_csv(result.trace, args.trace_out)
    return 0 if result.converged_at is not None else 1


def _dispatch(args) -> int:
    if args.command == "gen-problem":
        save_problem(_get_problem(args), args.out)
        print(f"wrote {args.out}")
        return 0

    if args.command == "gen-graph":
        graph = GraphSpec(args.family, args.param).build(args.p, args.seed)
        with open(args.out, "w") as fh:
            fh.write(graph_to_text(graph))
        print(f"wrote {args.out} ({graph.num_edges} edges)")
        return 0

    if args.command == "gen-schedule":
        with open(args.graph) as fh:
            graph = graph_from_text(fh.read())
        if not graph.is_connected():  # no run could use its schedule
            raise AssumptionViolation(f"{args.graph}: the graph is disconnected")
        schedule = gen_tv_schedule(graph, args.count, args.seed, args.retain)
        with open(args.out, "w") as fh:
            fh.write(schedule_to_text(schedule))
        print(f"wrote {args.out} (period {schedule.period})")
        return 0

    if args.command == "run":
        return _cmd_run(args)

    if args.command == "experiment":
        cfg = load_config(args.config)
        if args.out:
            cfg.out_dir = args.out
        report = run_experiment(cfg)
        files = write_report(report, cfg.out_dir)
        print(f"wrote {len(files)} files under {cfg.out_dir}")
        failures = [c for c in report.cells if c.error]
        for c in failures[:5]:
            print(f"cell error: {c.graph} seed {c.graph_seed} {c.algorithm}: "
                  f"{c.error}", file=sys.stderr)
        return 1 if failures else 0

    if args.command == "verify":
        return 0 if verify_mod.run_suites(args.suite, args.out) else 1

    raise AssertionError("unreachable")


def cli(argv=None) -> int:
    """Run one subcommand.  Input that it rejects (a bad value, a missing or
    malformed file, a network without the assumed connectivity, a run gone
    non-finite) ends it with one line on stderr and exit code 2."""
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except (ValueError, OSError, NumericFailure, AssumptionViolation) as exc:
        reason = (f"file not found: {exc.filename}" if isinstance(exc, FileNotFoundError)
                  else f"{type(exc).__name__}: {exc}")
        print(f"{args.command}: {reason}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())
