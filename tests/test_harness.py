import os
import subprocess
import sys

import numpy as np
import pytest

import distiht.cli
from distiht.cli import cli
from distiht.harness import (ALGORITHMS, ExperimentConfig, GraphSpec, load_config,
                             parse_config_text, parse_graph_token,
                             run_experiment, write_report)

DESK_CONFIG = """
[meta]
schema_version = 1

[problem]
n = 40
m = 20
k = 3
p = 5
ensemble = tight-frame
seeds = 0

[graphs]
families = er:0.5
seeds = 0

[algorithms]
run = diht

[run]
accuracies = 1e-1, 1e-2
max_iters = 300
"""


class TestConfig:
    def test_parse_round_trip(self):
        cfg = parse_config_text(DESK_CONFIG)
        assert (cfg.n, cfg.m, cfg.k, cfg.p) == (40, 20, 3, 5)
        assert cfg.ensemble == "tight-frame"
        assert cfg.graphs[0].family == "er"
        assert cfg.accuracies == [0.1, 0.01]
        assert cfg.algorithms == ["diht"]

    def test_schema_version_enforced(self):
        with pytest.raises(ValueError):
            parse_config_text("[meta]\nschema_version = 99\n")
        with pytest.raises(ValueError):
            parse_config_text("[problem]\nn = 10\n")

    def test_graph_token(self):
        spec = parse_graph_token(" geo:0.75 ")
        assert spec.family == "geo" and spec.param == 0.75
        with pytest.raises(ValueError):
            parse_graph_token("badtoken")

    def test_config_hash_tracks_text(self):
        a = parse_config_text(DESK_CONFIG)
        b = parse_config_text(DESK_CONFIG + "\n# comment\n")
        assert a.config_hash != b.config_hash


class TestRunExperiment:
    def test_minimal_grid(self):
        cfg = parse_config_text(DESK_CONFIG)
        report = run_experiment(cfg)
        assert len(report.cells) == 2  # one run, two accuracies
        for cell in report.cells:
            assert cell.converged
            assert cell.error == ""
        tighter = [c for c in report.cells if c.accuracy == 0.01][0]
        looser = [c for c in report.cells if c.accuracy == 0.1][0]
        assert tighter.iterations >= looser.iterations
        assert tighter.values >= looser.values

    def test_diht_values_identical_across_topologies(self):
        cfg = parse_config_text(DESK_CONFIG)
        cfg.graphs = [GraphSpec("ba", 2), GraphSpec("er", 0.25),
                      GraphSpec("er", 0.75), GraphSpec("geo", 0.5),
                      GraphSpec("geo", 0.75)]
        report = run_experiment(cfg)
        by_family = {}
        for c in report.cells:
            if c.accuracy == 0.01:
                by_family[c.graph] = c.values
        assert len(set(by_family.values())) == 1  # topology independent

    def test_errors_captured_per_cell(self):
        cfg = parse_config_text(DESK_CONFIG)
        cfg.algorithms = ["diht"]
        cfg.time_varying = True  # tree algorithm rejects time-varying nets
        report = run_experiment(cfg)
        assert all(c.error for c in report.cells)
        assert not any(c.converged for c in report.cells)

    def test_budget_cells_report_spent_counts(self):
        cfg = parse_config_text(DESK_CONFIG)
        cfg.max_iters = 2
        cfg.accuracies = [1e-9]
        report = run_experiment(cfg)
        cell = report.cells[0]
        assert not cell.converged
        assert cell.iterations == 2
        assert cell.values == 2 * (cfg.p - 1) * (2 * cfg.k + cfg.n)


class TestWriteReport:
    def test_empty_report_headers_only(self, tmp_path):
        from distiht.harness import Report
        files = write_report(Report(), str(tmp_path))
        runs = (tmp_path / "runs.csv").read_text().splitlines()
        agg = (tmp_path / "aggregate.csv").read_text().splitlines()
        assert len(runs) == 1 and runs[0].startswith("graph,")
        assert len(agg) == 1
        assert any(f.endswith("provenance.txt") for f in files)

    def test_single_run_round_trip(self, tmp_path):
        cfg = parse_config_text(DESK_CONFIG)
        report = run_experiment(cfg)
        write_report(report, str(tmp_path))
        rows = (tmp_path / "runs.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        parsed = dict(zip(header, rows[1].split(",")))
        cell = report.cells[0]
        assert parsed["graph"] == cell.graph
        assert int(parsed["values"]) == cell.values
        assert int(parsed["converged"]) == int(cell.converged)

    def test_aggregate_mean_of_runs(self, tmp_path):
        cfg = parse_config_text(DESK_CONFIG)
        cfg.graph_seeds = [0, 1, 2, 3, 4]
        report = run_experiment(cfg)
        rows = report.aggregate_rows()
        for row in rows:
            cells = [c for c in report.cells
                     if (c.graph, c.algorithm, c.accuracy)
                     == (row["graph"], row["algorithm"], row["accuracy"])]
            assert row["values"] == pytest.approx(np.mean([c.values for c in cells]))
            assert row["converged_fraction"] == pytest.approx(
                np.mean([c.converged for c in cells]))

    def test_determinism_byte_identical(self, tmp_path):
        cfg = parse_config_text(DESK_CONFIG)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_report(run_experiment(cfg), str(d1))
        write_report(run_experiment(cfg), str(d2))
        for name in ("runs.csv", "aggregate.csv", "table.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestCli:
    def test_run_diht_desk_converges(self, capsys):
        rc = cli(["run", "diht", "--n", "100", "--m", "50", "--k", "5",
                  "--p", "10", "--tol", "1e-2", "--ensemble", "tight-frame"])
        assert rc == 0
        assert "converged_at=" in capsys.readouterr().out

    def test_verify_single_suite(self, capsys):
        assert cli(["verify", "--suite", "thresholding"]) == 0
        assert "PASS thresholding" in capsys.readouterr().out

    def test_verify_unknown_suite(self):
        assert cli(["verify", "--suite", "nope"]) == 2

    def test_missing_experiment_config(self, capsys):
        assert cli(["experiment", "missing.ini"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        assert cli(["run", "diht", "--definitely-not-a-flag"]) == 2

    def test_gen_problem_and_graph(self, tmp_path, capsys):
        prob_path = str(tmp_path / "p.npz")
        assert cli(["gen-problem", "--n", "20", "--m", "10", "--k", "2",
                    "--p", "2", "--out", prob_path]) == 0
        assert os.path.exists(prob_path)
        graph_path = str(tmp_path / "g.txt")
        assert cli(["gen-graph", "--family", "er", "--p", "8",
                    "--param", "0.5", "--out", graph_path]) == 0
        sched_path = str(tmp_path / "s.txt")
        assert cli(["gen-schedule", "--graph", graph_path, "--count", "4",
                    "--out", sched_path]) == 0
        text = (tmp_path / "s.txt").read_text()
        assert "# t=3" in text

    def test_experiment_end_to_end(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(DESK_CONFIG + f"\n[output]\ndir = {tmp_path}/out\n")
        assert cli(["experiment", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "runs.csv").exists()
        assert (tmp_path / "out" / "table.csv").exists()

    def test_run_on_saved_problem(self, tmp_path):
        prob_path = str(tmp_path / "p.npz")
        cli(["gen-problem", "--n", "40", "--m", "20", "--k", "3", "--p", "4",
             "--ensemble", "tight-frame", "--out", prob_path])
        rc = cli(["run", "cbdiht", "--problem", prob_path, "--tv",
                  "--tol", "1e-2", "--max-iters", "400"])
        assert rc == 0


class TestConfigRejects:
    @pytest.mark.parametrize("old, new, offender", [
        ("max_iters = 300", "max_iter = 300", "'max_iter'"),
        ("[output]", "[outputs]", r"\[outputs\]"),
        ("run = diht", "run = diht, ihtt", "'ihtt'"),
    ])
    def test_unknown_names_raise(self, old, new, offender):
        text = DESK_CONFIG + "\n[output]\ndir = out\n"
        with pytest.raises(ValueError, match=offender):
            parse_config_text(text.replace(old, new))

    def test_shipped_config_parses(self):
        cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                       "desk.ini"))
        assert set(cfg.algorithms) == set(ALGORITHMS)
        assert cfg.time_varying is False and cfg.l is None and cfg.max_iters == 100000


class TestRegistry:
    def test_programming_error_propagates(self, monkeypatch):
        def broken(problem, graph, schedule, cfg):
            raise TypeError("bug")

        monkeypatch.setitem(ALGORITHMS, "diht", broken)
        with pytest.raises(TypeError):
            run_experiment(parse_config_text(DESK_CONFIG))

    def test_graph_without_connected_draw_is_a_cell_error(self):
        cfg = parse_config_text(DESK_CONFIG)
        cfg.graphs = [GraphSpec("geo", 0.01), GraphSpec("er", 0.5)]
        report = run_experiment(cfg)
        assert [bool(c.error) for c in report.cells] == [True, True, False, False]
        assert "AssumptionViolation" in report.cells[0].error

    @pytest.mark.parametrize("algorithm", ["iht", "diht", "cbdiht"])
    def test_start_within_target_spends_zero_iterations(self, algorithm):
        cfg = parse_config_text(DESK_CONFIG)
        cfg.algorithms, cfg.accuracies = [algorithm], [1.0, 2.0]
        report = run_experiment(cfg)
        for cell in report.cells:
            assert cell.converged and cell.iterations == 0
            assert (cell.values, cell.broadcasts, cell.time_steps) == (0, 0, 0)
        label = f"er0.5-g0-p0-{algorithm}"
        assert report.curves[label][0].per_iteration == []


SMALL = ["--n", "40", "--m", "20", "--k", "3", "--p", "4", "--tol", "1e-2"]


class TestCliRun:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_one_line_with_the_same_fields(self, algorithm, tmp_path, capsys):
        metrics = tmp_path / "m.csv"
        rc = cli(["run", algorithm, *SMALL, "--max-iters", "300",
                  "--metrics-out", str(metrics)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        fields = [f.split("=")[0] for f in lines[0].split(": ", 1)[1].split()]
        assert fields == ["converged_at", "iterations", "values", "messages",
                          "broadcasts", "time_steps"]
        assert rc == (1 if "converged_at=None" in lines[0] else 0)
        header = metrics.read_text().splitlines()[0]
        assert header.endswith("initiated_count") == (algorithm == "cbdiht")

    def test_trace_out_for_iht(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        assert cli(["run", "iht", *SMALL, "--trace-out", str(trace)]) == 0
        iterations = int(capsys.readouterr().out.split("iterations=")[1].split()[0])
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("iter,err_vs_truth")
        assert len(lines) == 1 + iterations + 1  # header, then the start and each step
        assert lines[-1].startswith(f"{iterations},")

    def test_tree_algorithm_rejects_time_varying(self, capsys):
        assert cli(["run", "diht", *SMALL, "--tv"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "static network" in err[0]

    @pytest.mark.parametrize("algorithm", ["diht", "cbdiht", "subgrad"])
    def test_trace_out_rejected_before_the_run(self, algorithm, monkeypatch, capsys):
        def must_not_run(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(distiht.cli, "run_cell", must_not_run)
        assert cli(["run", algorithm, *SMALL, "--trace-out", "t.csv"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--trace-out" in err[0]

    @pytest.mark.parametrize("flags", [["--l", "-1"], ["--trace-out", "t.csv"]])
    def test_value_error_exits_2(self, flags, capsys):
        assert cli(["run", "diht", *SMALL, *flags]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1


class TestCliExperiment:
    def test_cell_error_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(DESK_CONFIG.replace("max_iters = 300",
                                                "max_iters = 300\ntime_varying = true")
                            + f"\n[output]\ndir = {tmp_path}/out\n")
        assert cli(["experiment", str(cfg_path)]) == 1
        assert "static network" in capsys.readouterr().err
        assert (tmp_path / "out" / "runs.csv").exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(DESK_CONFIG.replace("max_iters", "max_iter"))
        assert cli(["experiment", str(cfg_path)]) == 2
        assert "max_iter" in capsys.readouterr().err

    @pytest.mark.parametrize("text, offender", [
        ("n = 3\n" + DESK_CONFIG, "no section headers"),
        (DESK_CONFIG.replace("n = 40", "n = 40\nn = 41"), "'n'"),
    ])
    def test_malformed_config_exits_2(self, text, offender, tmp_path, capsys):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(text)
        assert cli(["experiment", str(cfg_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and offender in err[0]

    @pytest.mark.parametrize("change, offender", [
        (("ensemble = tight-frame", "ensemble = foo"), "unknown ensemble 'foo'"),
        (("k = 3", "k = 500"), "k = 500"),
        (("p = 5", "p = 30"), "p = 30"),
        (("n = 40", "n = 10"), "m <= n"),
    ], ids=["ensemble", "k-above-n", "p-above-m", "tight-frame-m-above-n"])
    def test_unbuildable_problem_exits_2(self, change, offender, tmp_path, capsys):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(DESK_CONFIG.replace(*change)
                            + f"\n[output]\ndir = {tmp_path}/out\n")
        assert cli(["experiment", str(cfg_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and offender in err[0]
        assert not (tmp_path / "out").exists()

    def test_unbuildable_problem_prints_no_traceback(self, tmp_path):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(DESK_CONFIG.replace("k = 3", "k = 500"))
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        proc = subprocess.run(
            [sys.executable, "-c", "from distiht.cli import main; main()",
             "experiment", str(cfg_path)], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "Traceback" not in proc.stderr and "k = 500" in proc.stderr
