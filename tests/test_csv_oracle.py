"""Differential oracle for the CSV files: the original writers, kept verbatim.

The library writes every CSV file through one writer, `iht.write_csv`, which
quotes a field only when it holds a comma, quote or newline.  This file
keeps the four writers it replaced, each of which formatted its own fields
and quoted none, and checks that every file they wrote comes out the same,
byte for byte, whenever no field needs quoting.
"""
import csv
import os

import pytest

from distiht import verify
from distiht.diht import METRICS_COLUMNS, Metrics, write_metrics_csv
from distiht.harness import (AGGREGATE_CSV_COLUMNS, RUN_CSV_COLUMNS, GraphSpec,
                             Report, RunCell, parse_config_text, run_cell,
                             run_experiment, write_report)
from distiht.iht import IhtTrace, write_trace_csv
from distiht.model import generate_problem

GRID = """
[meta]
schema_version = 1

[problem]
n = 40
m = 20
k = 3
p = 5
ensemble = tight-frame
seeds = 0, 1

[graphs]
families = er:0.5, geo:0.75
seeds = 0

[algorithms]
run = iht, diht, cbdiht, subgrad

[run]
accuracies = 1e-1, 1e-5
max_iters = 300
"""


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def reference_write_report(report: Report, out_dir: str) -> list:
    os.makedirs(out_dir, exist_ok=True)
    curves_dir = os.path.join(out_dir, "curves")
    os.makedirs(curves_dir, exist_ok=True)
    written = []

    path = os.path.join(out_dir, "runs.csv")
    with open(path, "w") as fh:
        fh.write(",".join(RUN_CSV_COLUMNS) + "\n")
        for c in report.cells:
            fh.write(",".join(_fmt(getattr(c, col)) for col in RUN_CSV_COLUMNS)
                     + "\n")
    written.append(path)

    path = os.path.join(out_dir, "aggregate.csv")
    rows = report.aggregate_rows()
    with open(path, "w") as fh:
        fh.write(",".join(AGGREGATE_CSV_COLUMNS) + "\n")
        for r in rows:
            fh.write(",".join(_fmt(r[col]) for col in AGGREGATE_CSV_COLUMNS) + "\n")
    written.append(path)

    path = os.path.join(out_dir, "table.csv")
    combos = sorted({(r["algorithm"], r["accuracy"]) for r in rows})
    graphs = sorted({r["graph"] for r in rows})
    with open(path, "w") as fh:
        header = ["graph"] + [f"{a}@{acc:g}" for a, acc in combos]
        fh.write(",".join(header) + "\n")
        by_key = {(r["graph"], r["algorithm"], r["accuracy"]): r for r in rows}
        for g in graphs:
            cells = [g]
            for a, acc in combos:
                r = by_key.get((g, a, acc))
                prefix = "" if r is None or r["converged_fraction"] == 1.0 else ">"
                cells.append("" if r is None else f"{prefix}{r['values']:.6g}")
            fh.write(",".join(cells) + "\n")
    written.append(path)

    for label in sorted(report.curves):
        metrics, extra = report.curves[label]
        path = os.path.join(curves_dir, f"{label}.csv")
        reference_write_metrics_csv(metrics, path, extra_columns=extra)
        written.append(path)

    path = os.path.join(out_dir, "provenance.txt")
    with open(path, "w") as fh:
        fh.write(f"config_hash={report.config_hash}\n")
        for kind in sorted(report.seeds):
            fh.write(f"seeds_{kind}={','.join(map(str, report.seeds[kind]))}\n")
    written.append(path)
    return written


def reference_write_metrics_csv(metrics: Metrics, path: str, extra_columns=()) -> None:
    cols = METRICS_COLUMNS + list(extra_columns)
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in metrics.per_iteration:
            cells = (row.get(c, "") for c in cols)
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in cells) + "\n")


def reference_write_trace_csv(trace: IhtTrace, path: str) -> None:
    def cell(seq, i):
        return f"{seq[i]:.17g}" if i < len(seq) else ""

    with open(path, "w") as fh:
        fh.write("iter,err_vs_truth,eps_norm,step_delta_sq\n")
        for i in range(len(trace.step_deltas) + 1):
            fh.write(",".join([str(i), cell(trace.errors_vs_truth, i),
                               cell(trace.eps_norms, i),
                               cell(trace.step_deltas, i)]) + "\n")


def reference_verify_write_csv(out_dir, name, header, rows):
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def assert_same_files(got, want):
    names = sorted(os.path.relpath(os.path.join(d, f), got)
                   for d, _, files in os.walk(got) for f in files)
    assert names == sorted(os.path.relpath(os.path.join(d, f), want)
                           for d, _, files in os.walk(want) for f in files)
    for name in names:
        with open(os.path.join(got, name), "rb") as a, \
                open(os.path.join(want, name), "rb") as b:
            assert a.read() == b.read(), name


@pytest.mark.parametrize("time_varying", [False, True])
def test_report_matches_reference(time_varying, tmp_path):
    cfg = parse_config_text(GRID)
    cfg.time_varying = time_varying
    report = run_experiment(cfg)
    # on a time-varying network every DIHT cell is an error cell
    assert any(c.error for c in report.cells) == time_varying
    got = write_report(report, str(tmp_path / "got"))
    want = reference_write_report(report, str(tmp_path / "want"))
    assert [os.path.relpath(p, tmp_path / "got") for p in got] == [
        os.path.relpath(p, tmp_path / "want") for p in want]
    assert_same_files(str(tmp_path / "got"), str(tmp_path / "want"))


@pytest.mark.parametrize("algorithm", ["iht", "diht", "cbdiht", "subgrad"])
def test_metrics_and_trace_match_reference(algorithm, tmp_path):
    cfg = parse_config_text(GRID)
    cfg.algorithms = [algorithm]
    problem = generate_problem(40, 20, 3, 5, seed=0, ensemble="tight-frame")
    result = run_cell(problem, GraphSpec("er", 0.5), 0, algorithm, cfg)
    for name, write in [("got", write_metrics_csv),
                        ("want", reference_write_metrics_csv)]:
        write(result.metrics, str(tmp_path / f"{name}.csv"),
              extra_columns=result.extra_columns)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    if algorithm == "iht":
        # columns of three lengths: every row, all but the last (the step
        # deltas), the first two
        trace = result.trace
        trace.eps_norms = [0.1, 1e-300]
        write_trace_csv(trace, str(tmp_path / "got-trace.csv"))
        reference_write_trace_csv(trace, str(tmp_path / "want-trace.csv"))
        assert ((tmp_path / "got-trace.csv").read_bytes()
                == (tmp_path / "want-trace.csv").read_bytes())


def test_verify_evidence_matches_reference(tmp_path, monkeypatch, capsys):
    assert verify.run_suites(None, str(tmp_path / "got"))
    monkeypatch.setattr(verify, "_write_csv", reference_verify_write_csv)
    assert verify.run_suites(None, str(tmp_path / "want"))
    assert_same_files(str(tmp_path / "got"), str(tmp_path / "want"))


def test_error_with_a_comma_stays_one_field(tmp_path):
    report = Report(cells=[RunCell("er0.5", 0, 0, "diht", 0.01, False, 0, 0, 0, 0, 0,
                                   error="X: a, b")])
    write_report(report, str(tmp_path))
    with open(tmp_path / "runs.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(r) for r in rows] == [12, 12]
    assert rows[1][-1] == "X: a, b"
