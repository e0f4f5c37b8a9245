"""Golden counters of the desk grid (configs/desk.ini) at a cut budget of 300.

The static grid must reproduce every cell that perfbench/reference.json holds
for its desk-grid workload (seed 0 keeps the file's graph seeds).  The
time-varying grid (cbdiht and subgrad only) must reproduce
desk_tv_golden.json, which was recorded by running this test's grid on commit
7becc1f, before the subgradient lockstep kept only its crossings and curve
rows.  Counters must match exactly, and each final relative error within
1e-10.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from distiht.harness import load_config, run_experiment
from distiht.model import generate_problem

ROOT = Path(__file__).resolve().parent.parent
BUDGET = 300


def desk_records(time_varying: bool, algorithms=None) -> dict:
    """The grid's runs, by curve label, as the reference files record them."""
    cfg = load_config(str(ROOT / "configs" / "desk.ini"))
    cfg.max_iters, cfg.time_varying = BUDGET, time_varying
    cfg.algorithms = algorithms or cfg.algorithms
    report = run_experiment(cfg)
    assert not any(c.error for c in report.cells)
    norms = {s: float(np.linalg.norm(generate_problem(
        cfg.n, cfg.m, cfg.k, cfg.p, cfg.noise_std, cfg.spectral_cap, s,
        cfg.ensemble).x_star)) for s in cfg.problem_seeds}
    records = {}
    for c in report.cells:
        label = f"{c.graph}-g{c.graph_seed}-p{c.problem_seed}-{c.algorithm}"
        if label not in records:
            last = report.curves[label][0].per_iteration[-1]
            records[label] = {
                "cells": [], "final_err": last["err"] / norms[c.problem_seed],
                "iterations": last["iter"], "values": last["values_cum"],
                "messages": last["messages_cum"], "broadcasts": last["broadcasts_cum"],
                "time_steps": last["time_steps_cum"]}
        records[label]["cells"].append([c.accuracy, c.converged, c.iterations, c.values,
                                        c.messages, c.broadcasts, c.time_steps])
    return records


@pytest.mark.parametrize("time_varying, reference, algorithms", [
    (False, None, None), (True, "desk_tv_golden.json", ["cbdiht", "subgrad"])])
def test_desk_grid_reproduces_its_golden_counters(time_varying, reference, algorithms):
    if reference is None:
        with open(ROOT / "perfbench" / "reference.json") as fh:
            want = json.load(fh)["workloads"]["desk-grid"]
    else:
        with open(Path(__file__).resolve().parent / reference) as fh:
            want = json.load(fh)
    got = desk_records(time_varying, algorithms)
    assert sorted(got) == sorted(run["name"] for run in want)
    assert len(got) == (60 if time_varying else 120)
    for run in want:
        record = got[run["name"]]
        assert record["cells"] == run["cells"], run["name"]
        for key in ("iterations", "values", "messages", "broadcasts", "time_steps"):
            assert record[key] == run[key], (run["name"], key)
        assert abs(record["final_err"] - run["final_err"]) <= 1e-10, run["name"]
