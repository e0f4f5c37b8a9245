import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from oracles import percell_run_experiment

import distiht.cli
import distiht.diht
import distiht.harness
from distiht.cbdiht import run_cbdiht
from distiht.cli import cli
from distiht.diht import StopRule, default_step_constant, run_diht
from distiht.graphs import gen_erdos_renyi, static_schedule
from distiht.harness import (ALGORITHMS, ExperimentConfig, GraphSpec, load_config,
                             parse_config_text, parse_graph_token,
                             run_experiment, write_report)
from distiht.iht import IhtConfig, run_iht
from distiht.model import (generate_problem, save_problem, stacked_lipschitz,
                           support_gradient)

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

    def test_cbdiht_crossings_read_back_from_the_curve(self):
        cfg = parse_config_text(DESK_CONFIG)
        cfg.algorithms, cfg.time_varying, cfg.subgraph_count = ["cbdiht"], True, 3
        cfg.graph_seeds = [0, 1]
        report = run_experiment(cfg)
        norm = np.linalg.norm(generate_problem(cfg.n, cfg.m, cfg.k, cfg.p, cfg.noise_std,
                                               cfg.spectral_cap, 0, cfg.ensemble).x_star)
        converged = [c for c in report.cells if c.converged]
        assert len(converged) == len(report.cells) == 4
        for c in converged:
            curve = report.curves[f"er0.5-g{c.graph_seed}-p0-cbdiht"][0].columns
            first = np.flatnonzero(curve["worst_err"] <= c.accuracy * norm)[0]
            assert curve["iter"][first] == c.iterations
            assert curve["values_cum"][first] == c.values

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

    def test_verify_rejects_an_unknown_suite_before_any_runs(self, tmp_path, capsys):
        out = tmp_path / "v"
        assert cli(["verify", "--suite", "thresholding", "--suite", "bogus",
                    "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert not captured.out and "unknown suite 'bogus'" in captured.err
        assert not out.exists()

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
        def broken(problem, schedule, cfg):
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

    def test_each_network_is_built_once_per_grid(self, monkeypatch):
        # every problem seed and algorithm shares its (graph, graph seed)
        # network; a build that raises is the error of each of its cells
        cfg = parse_config_text(DESK_CONFIG)
        cfg.problem_seeds, cfg.graph_seeds = [0, 1], [0, 1]
        cfg.graphs = [GraphSpec("geo", 0.01), GraphSpec("er", 0.5)]
        cfg.algorithms, cfg.max_iters = ["iht", "diht", "cbdiht", "subgrad"], 40
        want = percell_run_experiment(cfg)
        built = []
        network = distiht.harness._network
        monkeypatch.setattr(distiht.harness, "_network",
                            lambda *args: built.append(args[1:3]) or network(*args))
        report = run_experiment(cfg)
        assert len(built) == 4 == len(set((spec.label, seed) for spec, seed in built))
        assert report.cells == want.cells and report.curves == want.curves
        assert sum("AssumptionViolation" in c.error for c in report.cells) == 32

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

    def test_each_failed_run_is_printed_once_with_its_seeds(self, tmp_path, capsys):
        # 6 DIHT runs on schedules, 2 cells each: the first 5 runs, one line each
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(DESK_CONFIG.replace("max_iters = 300",
                                                "max_iters = 300\ntime_varying = true")
                            .replace("seeds = 0\n\n[graphs]", "seeds = 0, 1, 2\n\n[graphs]")
                            .replace("seeds = 0\n\n[algorithms]", "seeds = 0, 1\n\n[algorithms]")
                            + f"\n[output]\ndir = {tmp_path}/out\n")
        assert cli(["experiment", str(cfg_path)]) == 1
        reason = "ValueError: the tree-based algorithm needs a static network"
        assert capsys.readouterr().err.splitlines() == [
            f"cell error: er0.5 graph seed {g} problem seed {p} diht: {reason}"
            for p, g in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]]
        runs = (tmp_path / "out" / "runs.csv").read_text().splitlines()
        assert sum(reason in line for line in runs) == 12

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

    def test_python_m_runs_from_a_checkout(self):
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        proc = subprocess.run(
            [sys.executable, "-m", "distiht", "run", "subgrad", "--n", "12", "--m", "6",
             "--k", "2", "--p", "3", "--max-iters", "5"], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stderr) == (1, "")
        assert proc.stdout.startswith("subgrad: converged_at=None iterations=5 ")

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


class TestCliRejects:
    @pytest.mark.parametrize("argv", [
        ["gen-problem", "--n", "5", "--m", "10", "--out", "{tmp}/p.npz"],
        ["gen-graph", "--family", "er", "--p", "8", "--param", "0",
         "--out", "{tmp}/g.txt"],
        ["gen-schedule", "--graph", "{tmp}/good.txt", "--count", "0",
         "--out", "{tmp}/s.txt"],
        ["gen-schedule", "--graph", "{tmp}/missing.txt", "--out", "{tmp}/s.txt"],
        ["gen-schedule", "--graph", "{tmp}/bad.txt", "--out", "{tmp}/s.txt"],
        ["gen-schedule", "--graph", "{tmp}/twice.txt", "--out", "{tmp}/s.txt"],
        ["gen-schedule", "--graph", "{tmp}/split.txt", "--out", "{tmp}/s.txt"],
        ["run", "diht", "--problem", "{tmp}/missing.npz"],
        ["run", "iht", "--problem", "{tmp}/floats.npz"],
    ], ids=["tight-frame-m-above-n", "zero-param", "zero-count", "missing-graph",
            "three-token-line", "second-p-header", "disconnected-graph",
            "missing-problem", "float-offsets"])
    def test_rejected_input_exits_2_with_one_line(self, argv, tmp_path, capsys):
        inputs = {"good.txt": "# p=3\n0 1\n1 2\n", "bad.txt": "# p=3\n0 1\n1 2 3\n",
                  "twice.txt": "# p=3\n0 1\n1 2\n# p=5\n",
                  "split.txt": "# p=4\n0 1\n2 3\n"}
        for name, text in inputs.items():
            (tmp_path / name).write_text(text)
        floats = tmp_path / "floats.npz"  # a problem whose offsets are 0., 2., 4., 6., 8.
        save_problem(generate_problem(20, 10, 2, 5, seed=0), str(floats))
        with np.load(floats) as z:
            arrays = {**z, "offsets": z["offsets"].astype(float)}
        np.savez(floats, **arrays)
        assert cli([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and "Traceback" not in captured.err
        assert err[0].startswith(f"{argv[0]}: ")
        assert not captured.out
        # no file written
        assert sorted(os.listdir(tmp_path)) == sorted([*inputs, floats.name])

    @pytest.mark.parametrize("flags", [
        ["--p", "99"], ["--n", "7"], ["--m", "9"], ["--k", "1"], ["--noise-std", "0.1"],
        ["--cap", "0.5"], ["--ensemble", "gaussian"], ["--seed", "0"],
        ["--p", "99", "--n", "7", "--ensemble", "gaussian"]])
    def test_generator_flags_rejected_with_a_saved_problem(self, flags, tmp_path,
                                                           monkeypatch, capsys):
        path = str(tmp_path / "p.npz")
        assert cli(["gen-problem", *SMALL[:8], "--out", path]) == 0
        capsys.readouterr()
        monkeypatch.setattr(distiht.cli, "run_cell", must_not_run)
        assert cli(["run", "diht", "--problem", path, *flags]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and not captured.out
        assert err[0].startswith("run: ValueError: --problem cannot be combined")
        assert all(f in err[0] for f in flags if f.startswith("--"))

    def test_three_token_line_is_named(self, tmp_path, capsys):
        (tmp_path / "bad.txt").write_text("# p=3\n0 1\n1 2 3\n")
        assert cli(["gen-schedule", "--graph", str(tmp_path / "bad.txt"),
                    "--out", str(tmp_path / "s.txt")]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_problem_prints_no_traceback(self, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        proc = subprocess.run(
            [sys.executable, "-c", "from distiht.cli import main; main()",
             "run", "diht", "--problem", str(tmp_path / "missing.npz")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "Traceback" not in proc.stderr and "missing.npz" in proc.stderr


def must_not_run(*args):
    raise AssertionError("a cell ran")


class TestConfigChecked:
    @pytest.mark.parametrize("old, new, offender", [
        ("er:0.5", "foo:1", "unknown graph family 'foo'"),
        ("er:0.5", "ba:2.5", "ba attachment 2.5"),
        ("er:0.5", "ba:5", "ba attachment 5"),
        ("er:0.5", "er:1.5", "er probability 1.5"),
        ("er:0.5", "geo:0", "geo radius 0"),
        ("er:0.5", "er:0.25, er:0.250", "repeated graphs: ['er0.25', 'er0.25']"),
        ("seeds = 0\n\n[graphs]", "seeds = 0, 0\n\n[graphs]", "repeated problem seeds"),
        ("seeds = 0\n\n[algorithms]", "seeds = 0, 0\n\n[algorithms]",
         "repeated graph seeds"),
        ("run = diht", "run = diht, iht, diht", "repeated algorithms"),
        ("1e-1, 1e-2", "1e-1, 0.1", "repeated accuracies"),
        ("1e-1, 1e-2", "-1", "accuracies [-1.0] must be positive"),
        ("1e-1, 1e-2", "inf", "ValueError: accuracies [inf] must be positive and finite"),
        ("p = 5", "p = 5\nspectral_cap = nan",
         "ValueError: spectral_cap = nan must be finite and positive"),
        ("p = 5", "p = 5\nspectral_cap = inf",
         "ValueError: spectral_cap = inf must be finite and positive"),
        ("p = 5", "p = 5\nnoise_std = -0.01",
         "ValueError: noise_std = -0.01 must be finite and at least 0"),
        ("p = 5", "p = 5\nnoise_std = nan",
         "ValueError: noise_std = nan must be finite and at least 0"),
        ("max_iters = 300", "max_iters = 0", "max_iters 0"),
        ("max_iters = 300", "max_iters = 300\nsubgraph_count = 0", "subgraph count 0"),
        ("run = diht", "run = diht\nstep_exponent = 0.5", "step_exponent 0.5"),
    ], ids=["unknown-family", "ba-fraction", "ba-at-p", "er-above-1", "geo-zero",
            "graph-label", "problem-seed", "graph-seed", "algorithm", "accuracy",
            "negative-accuracy", "inf-accuracy", "nan-cap", "inf-cap", "negative-noise",
            "nan-noise", "zero-budget", "zero-subgraphs", "step-exponent"])
    def test_rejected_before_any_cell_runs(self, old, new, offender, tmp_path,
                                           monkeypatch, capsys):
        assert old in DESK_CONFIG
        monkeypatch.setattr(distiht.harness, "run_cell", must_not_run)
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(DESK_CONFIG.replace(old, new)
                            + f"\n[output]\ndir = {tmp_path}/out\n")
        assert cli(["experiment", str(cfg_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and offender in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["l", "l_tv"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_step_constants_must_be_finite_and_positive(self, key, value, tmp_path,
                                                        monkeypatch, capsys):
        # each once passed the check: -1 failed every iht and diht cell, nan
        # went non-finite at iteration 0, and inf ran and converged nowhere
        text = DESK_CONFIG.replace("run = diht", f"run = diht\n{key} = {value}")
        with pytest.raises(ValueError) as raised:
            parse_config_text(text)
        message = str(raised.value)
        assert "\n" not in message and message.startswith(f"{key} = ")
        assert message.endswith("must be finite and positive")
        monkeypatch.setattr(distiht.harness, "run_cell", must_not_run)
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(text + f"\n[output]\ndir = {tmp_path}/out\n")
        assert cli(["experiment", str(cfg_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"ValueError: {key} = " in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [-1.0, 0.0, float("nan"), float("inf")])
    def test_runs_reject_the_same_step_constants(self, value):
        problem = generate_problem(20, 10, 2, 4, seed=1, ensemble="tight-frame")
        graph = gen_erdos_renyi(4, 0.7, 1)
        with pytest.raises(ValueError, match="^l = .* must be finite and positive$"):
            IhtConfig(l=value, k=2)
        with pytest.raises(ValueError, match="^l = .* must be finite and positive$"):
            run_diht(problem, graph, l=value, stop=StopRule())
        with pytest.raises(ValueError, match="^l_tv = .* must be finite and positive$"):
            run_cbdiht(problem, static_schedule(graph), l_tv=value, stop=StopRule())

    @pytest.mark.parametrize("flags, offender", [
        (["--family", "ba", "--param", "2.5"], "ba attachment 2.5"),
        (["--tol", "-1"], "must be positive"),
        (["--subgraphs", "0"], "subgraph count 0"),
        (["--tol", "inf"], "accuracies [inf] must be positive and finite"),
    ])
    def test_run_rejects_before_the_cell(self, flags, offender, monkeypatch, capsys):
        monkeypatch.setattr(distiht.cli, "run_cell", must_not_run)
        assert cli(["run", "diht", *SMALL, *flags]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and offender in err[0]

    @pytest.mark.parametrize("family, p, param", [("er", "0", "0.5"), ("er", "-2", "0.5"),
                                                  ("geo", "-2", "0.5"), ("ba", "0", "1")])
    def test_gen_graph_rejects_fewer_than_one_vertex(self, family, p, param, tmp_path,
                                                     capsys):
        out = tmp_path / "g.txt"
        assert cli(["gen-graph", "--family", family, "--p", p, "--param", param,
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"gen-graph: ValueError: p = {p} must be at least 1"]
        assert not out.exists()

    def test_gen_graph_rejects_a_fractional_attachment(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert cli(["gen-graph", "--family", "ba", "--p", "8", "--param", "2.5",
                    "--out", str(out)]) == 2
        assert "ba attachment 2.5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, offender", [
        (["--noise-std", "-1"], "noise_std = -1.0 must be finite and at least 0"),
        (["--cap", "inf"], "spectral_cap = inf must be finite and positive"),
    ])
    def test_gen_problem_rejects_out_of_range_values(self, flags, offender, tmp_path,
                                                     capsys):
        out = tmp_path / "p.npz"
        assert cli(["gen-problem", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and offender in err[0]
        assert not out.exists()

    def test_run_defaults_are_the_config_defaults(self, monkeypatch):
        class Captured(Exception):
            pass

        seen = []

        def capture(problem, spec, graph_seed, algorithm, cfg):
            seen.append(cfg)
            raise Captured  # cli() lets it through

        monkeypatch.setattr(distiht.cli, "run_cell", capture)
        with pytest.raises(Captured):
            cli(["run", "diht"])
        got, want = seen[0], ExperimentConfig()
        for name in ["n", "m", "k", "p", "noise_std", "spectral_cap", "ensemble",
                     "graphs", "subgraph_count", "step_exponent", "max_iters"]:
            assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("content", [None, b"PK\x03\x04garbage"],
                         ids=["missing-arrays", "truncated"])
def test_incomplete_problem_file_exits_2(content, tmp_path):
    path = tmp_path / "p.npz"
    if content is None:
        np.savez(path, a=1)
    else:
        path.write_bytes(content)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run(
        [sys.executable, "-c", "from distiht.cli import main; main()",
         "run", "diht", "--problem", str(path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert "not a complete problem archive" in proc.stderr


def test_iht_cell_takes_the_forward_product_on_the_support(monkeypatch):
    # the centralized IHT cell computes 2 (A^T A)[:, s] x[s] - 2 A^T b with s
    # the iterate's nonzeros, and builds a column of A^T A only for an index
    # of some iterate's support; it follows the dense gradient to rounding.
    # The cell runs on a fresh problem, which keeps no earlier trajectory.
    problem = generate_problem(80, 40, 4, 4, seed=5, ensemble="tight-frame")
    oracles, supports = [], set()

    def spy(prob):
        oracles.append(support_gradient(prob))

        def gradient(x, support):
            np.testing.assert_array_equal(support, np.flatnonzero(x))
            assert len(support) <= 4
            supports.update(support.tolist())
            return oracles[-1](x, support)

        return gradient

    monkeypatch.setattr(distiht.diht, "support_gradient", spy)
    got = ALGORITHMS["iht"](replace(problem), None,
                            ExperimentConfig(accuracies=[1e-2, 1e-9], max_iters=400))
    a, b = problem.stacked()
    config = IhtConfig(l=default_step_constant(problem), k=4, max_iters=400, tol=1e-9,
                       x_init=np.zeros(80))
    want = run_iht(lambda x: 2.0 * (a.T @ (a @ x - b)), problem.x_star, config)
    assert len(oracles) == 1 and supports
    assert set(oracles[0].columns) == supports
    assert got.converged_at == want.converged_at is not None
    scale = max(want.errors_vs_truth)
    np.testing.assert_allclose(got.trace.errors_vs_truth, want.errors_vs_truth,
                               rtol=1e-12, atol=1e-12 * scale)
    assert np.array_equal(np.flatnonzero(got.trace.final), np.flatnonzero(want.final))
    np.testing.assert_allclose(got.trace.final, want.final, rtol=1e-12,
                               atol=1e-12 * float(np.max(np.abs(want.final))))


@pytest.mark.parametrize("scale", [None, 1.5], ids=["default-l", "l=1.5L"])
def test_iht_cell_and_diht_take_one_gradient(scale, monkeypatch):
    # both take 2 A^T (A x - b) from model.support_gradient at the iterate's
    # nonzeros, so at one step constant their iterates agree bit for bit; each
    # runs on its own fresh problem, so each builds and calls its own oracle
    problem = generate_problem(80, 40, 4, 4, seed=5, ensemble="tight-frame")
    l = None if scale is None else scale * stacked_lipschitz(problem)
    points = []  # one list of gradient points per oracle built

    def spy(prob):
        oracle, points_here = support_gradient(prob), []
        points.append(points_here)

        def gradient(x, support):
            points_here.append(x)
            return oracle(x, support)

        return gradient

    monkeypatch.setattr(distiht.diht, "support_gradient", spy)
    cell = ALGORITHMS["iht"](replace(problem), None, ExperimentConfig(
        accuracies=[1e-2, 1e-9], max_iters=400, l=l))
    run = run_diht(replace(problem), gen_erdos_renyi(4, 0.5, 0), l=l,
                   stop=StopRule(tol=1e-9, max_iters=400))
    assert cell.converged_at == run.trace.converged_at is not None
    assert len(points) == 2 and len(points[1]) == len(run.trace.step_deltas)
    cell_iterates = points[0] + [cell.trace.final]
    assert len(cell_iterates) == len(run.trace.iterates)
    for u, v, w in zip(cell_iterates, run.trace.iterates, points[1]):
        assert u.tobytes() == v.tobytes() == w.tobytes()
    assert cell.trace.errors_vs_truth == run.trace.errors_vs_truth
    assert cell.trace.step_deltas == run.trace.step_deltas
