"""End-to-end and per-layer benchmark of the distiht simulator.

Run from the repository root:

    python3 perfbench/bench.py --workload paper-static --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it repeats untraced passes for about ``--seconds`` seconds,
building the inputs afresh before each (``setup_s``, the median build), and
reports ``solve_s``, the sum over the pass's runs of each run's fastest time,
and the process's peak memory.  With
``--trace 1`` it runs one untraced pass and one traced pass, in which the
module-level names the run loops call are rebound to span recorders, and
then the kernel micro-benchmarks; it reports the per-layer numbers.  Every
pass is checked: a run fails if it raises or if its counters differ from
the recorded reference (default seed) or from the accounting's closed
forms (any seed).  The last line of standard output is the JSON result.

``--smoke`` shrinks every size and makes one pass; ``--record`` rewrites the
workload's entry in ``reference.json`` from one pass at the default seed.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
TRACE_PASSES = 3  # untraced and traced passes each, with --trace 1
# One BLAS thread: the kernels are small (at most 200 x 1000), and a second
# thread on a two-core machine adds a ~1 s start-up spike to the first
# factorization and run-to-run noise, not speed.
BLAS_THREADS = 1


def _blas_threads_in_use() -> int | None:
    """Ask numpy's bundled OpenBLAS for its thread count; None if it cannot be asked."""
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; '' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return ""


def environment(seed: int, workload: str) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas_name": blas.get("name", ""), "blas_version": blas.get("version", ""),
            "blas_threads": _blas_threads_in_use(), "blas_threads_requested": BLAS_THREADS,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "git_commit": _git_commit(),
            "workload": workload, "seed": seed}


def _load_reference(workload: str) -> list | None:
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text())["workloads"].get(workload)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 out_dir: Path) -> dict:
    """Measure one workload; returns the result plus details for the log."""
    import workloads as W
    from tracer import Tracer

    scale = W.SMOKE if smoke else W.PAPER
    wl = W.WORKLOADS[name]
    reference = None
    if seed == DEFAULT_SEED and not smoke:
        reference = _load_reference(name)
        if reference is None:
            raise SystemExit(f"no reference recorded for {name}; run with --record")
    report_dir = str(out_dir / f"report-{os.getpid()}")

    def gate(inputs, raw, first: list | None) -> list:
        recs = wl.records(inputs, raw)
        if reference is not None:
            W.check_reference(recs, reference)
        if first is not None and [r.key() for r in recs] != [r.key() for r in first]:
            recs[0].violations.append("records differ from the first pass of this run")
        return recs

    # warm up at workload size: one build and a one-run pass
    wl.solve(wl.warm_inputs(wl.build(seed, scale, report_dir)))

    # Other tenants of a shared machine slow whole stretches of seconds by up
    # to half; each run's fastest time over the repeated passes is far
    # steadier than any one pass, so solve_s sums those.  Every pass builds
    # its inputs afresh, which spreads the set-up samples over the same time.
    setup_times, pass_times, fastest, all_recs, first = [], [], None, [], None
    begin = perf_counter()
    while True:
        t0 = perf_counter()
        inputs = wl.build(seed, scale, report_dir)
        setup_times.append(perf_counter() - t0)
        t0 = perf_counter()
        raw = wl.solve(inputs)
        pass_times.append(perf_counter() - t0)
        units = [secs for _name, _result, secs in raw]
        fastest = units if fastest is None else list(map(min, fastest, units))
        recs = gate(inputs, raw, first)
        first = first or recs
        all_recs.extend(recs)
        elapsed = perf_counter() - begin
        if smoke or (trace and len(pass_times) == TRACE_PASSES) \
                or (not trace and elapsed + setup_times[-1] + pass_times[-1] > seconds):
            break

    detail = {"workload": name, "seed": seed, "smoke": smoke,
              "setup_times_s": setup_times, "pass_times_s": pass_times,
              "solve_s": sum(fastest)}
    traced_match = True
    if trace:
        # as many traced passes as untraced ones, so that the overhead is the
        # difference of two fastest passes; the spans are those of the last
        traced_times = []
        for _ in pass_times:
            tracer = Tracer()
            with tracer.installed(W.TRACE_TARGETS), tracer.span("bench.pass"):
                t0 = perf_counter()
                raw = wl.solve(inputs)
                traced_times.append(perf_counter() - t0)
            traced = gate(inputs, raw, None)
            traced_match &= [r.key() for r in traced] == [r.key() for r in first]
            all_recs.extend(traced)
        metrics = _per_layer(tracer, traced, traced_times, pass_times, seed, scale)
        detail["traced_counters_match"] = traced_match
        detail["self_s"] = {k: v[1] for k, v in sorted(tracer.self_times().items())}
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = out_dir / f"trace-{name}-seed{seed}.json"
        tracer.dump(str(trace_path), {"env": environment(seed, name),
                                      "self_times": tracer.self_times()})
        detail["trace_file"] = str(trace_path)
    else:
        metrics = {
            "solve_s": {"value": sum(fastest), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    failures = [f"{r.name}: {v}" for r in all_recs for v in r.violations]
    failed = sum(1 for r in all_recs if r.violations)
    detail["failures"] = failures[:20]
    detail["records"] = [r.to_json() for r in first]
    detail["pass_totals"] = {c: sum(getattr(r, c) for r in first)
                             for c in ("iterations", "time_steps", "values")}
    return {"result": {"correct": failed == 0 and traced_match,
                       "attempted": len(all_recs), "failed": failed,
                       "metrics": metrics},
            "detail": detail}


def _per_layer(tracer, recs, traced_times: list, untraced_times: list, seed: int,
               scale) -> dict:
    import micro
    import workloads as W

    out: dict = {}
    spans = tracer.self_times()
    for span in W.SPAN_NAMES:
        calls, self_s = spans.get(span, (0, 0.0))
        out[f"{span}.calls"] = {"value": calls, "unit": "count"}
        out[f"{span}.self_pct"] = {"value": 100.0 * self_s / traced_times[-1],
                                   "unit": "%"}
    out["trace.solve_s"] = {"value": min(traced_times), "unit": "s"}
    out["trace.overhead_s"] = {"value": min(traced_times) - min(untraced_times),
                               "unit": "s"}
    out["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}
    for counter in ("iterations", "values", "messages", "broadcasts", "time_steps"):
        out[f"counters.{counter}"] = {"value": sum(getattr(r, counter) for r in recs),
                                      "unit": "count"}
    cb = [r for r in recs if r.joined_fraction is not None]
    weight = sum(r.iterations for r in cb)
    out["cbdiht.joined_fraction"] = {
        "value": sum(r.joined_fraction * r.iterations for r in cb) / weight if weight
        else 0.0, "unit": "fraction"}
    cells = [c for r in recs for c in r.cells]
    out["harness.cells"] = {"value": len(cells), "unit": "count"}
    out["harness.converged_fraction"] = {
        "value": sum(1 for c in cells if c[1]) / len(cells) if cells else 0.0,
        "unit": "fraction"}
    for kernel, (med, q1, q3) in micro.run_micro(seed, scale).items():
        unit = "us" if "_us" in kernel else "ms"
        out[kernel] = {"value": med, "unit": unit}
        out[f"{kernel}.q1"] = {"value": q1, "unit": unit}
        out[f"{kernel}.q3"] = {"value": q3, "unit": unit}
    return out


def record_reference(name: str) -> list:
    """One untraced pass at the default seed; returns its records if they pass."""
    import workloads as W
    wl = W.WORKLOADS[name]
    report_dir = str(OUT_DIR / f"report-{os.getpid()}")
    inputs = wl.build(DEFAULT_SEED, W.PAPER, report_dir)
    recs = wl.records(inputs, wl.solve(inputs))
    bad = [f"{r.name}: {v}" for r in recs for v in r.violations]
    if bad:
        raise SystemExit("closed forms violated, not recording:\n" + "\n".join(bad))
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {
        "seed": DEFAULT_SEED, "workloads": {}}
    data["workloads"][name] = [r.to_json() for r in recs]
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return recs


def _import_library() -> str | None:
    """Import the library from this checkout's src/; an error message on failure."""
    try:
        import workloads
    except ImportError as exc:
        return f"cannot import the library from {ROOT / 'src'}: {exc}"
    where = Path(workloads.library_location())
    if where.parent != ROOT / "src":
        return f"imported distiht from {where}, not from {ROOT / 'src'}"
    if not workloads.DESK_CONFIG.exists():
        return f"missing {workloads.DESK_CONFIG}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-static", "paper-tv", "paper-subgrad", "desk-grid"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    error = _import_library()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.record:
            recs = record_reference(args.workload)
            print(f"recorded {len(recs)} runs of {args.workload} in {REFERENCE}")
            return 0
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.smoke, OUT_DIR)
    finally:
        shutil.rmtree(OUT_DIR / f"report-{os.getpid()}", ignore_errors=True)
    print("env " + json.dumps(environment(args.seed, args.workload)))
    detail = {k: v for k, v in out["detail"].items() if k != "records"}
    print("detail " + json.dumps(detail))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
