"""Smoke test of the benchmark: tiny sizes, one pass each, no timing bound.

Every workload must pass its counter gate (the accounting's closed forms),
the traced pass must reproduce the untraced counters exactly, and the
metrics printed must be exactly the ones BENCHMARK.json declares.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import workloads as W  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def test_declared_workloads_are_the_implemented_ones():
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(W.WORKLOADS)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_smoke_pass_meets_closed_forms_and_tracing_keeps_counters(name, tmp_path):
    plain = bench.run_workload(name, seed=3, seconds=0.0, trace=False, smoke=True,
                               out_dir=tmp_path)
    assert plain["detail"]["failures"] == []
    assert plain["result"]["correct"] and plain["result"]["failed"] == 0
    assert {k: v["unit"] for k, v in plain["result"]["metrics"].items()} \
        == _declared("end_to_end")

    traced = bench.run_workload(name, seed=3, seconds=0.0, trace=True, smoke=True,
                                out_dir=tmp_path)
    assert traced["detail"]["traced_counters_match"]
    assert traced["result"]["correct"] and traced["result"]["failed"] == 0
    assert traced["detail"]["records"] == plain["detail"]["records"]
    metrics = traced["result"]["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("per_layer")
    assert metrics["counters.iterations"]["value"] > 0


def test_gate_flags_a_counter_that_breaks_its_closed_form(tmp_path):
    wl = W.WORKLOADS["paper-static"]
    inputs = wl.build(3, W.SMOKE, str(tmp_path))
    raw = wl.solve(inputs)
    assert all(not r.violations for r in wl.records(inputs, raw))
    name, run, _secs = raw[1]
    assert "/diht/" in name
    run.metrics.values_sent += 1
    flagged = [r for r in wl.records(inputs, raw) if r.violations]
    assert [r.name for r in flagged] == [name]
    assert "closed form" in flagged[0].violations[0]


def test_desk_grid_split_into_parts_is_the_whole_grid(tmp_path):
    wl = W.WORKLOADS["desk-grid"]
    inputs = wl.build(3, W.SMOKE, str(tmp_path))
    assert len(inputs.config.problem_seeds) > 1
    merged = wl.solve(inputs)[-1][1]
    whole = W.harness.run_experiment(inputs.config)
    assert merged.cells == whole.cells
    assert merged.curves == whole.curves
    assert (merged.seeds, merged.config_hash) == (whole.seeds, whole.config_hash)


def test_reference_check_wants_exact_counters_and_final_error_within_1e10(tmp_path):
    wl = W.WORKLOADS["paper-tv"]
    inputs = wl.build(3, W.SMOKE, str(tmp_path))
    reference = [r.to_json() for r in wl.records(inputs, wl.solve(inputs))]
    reference[0]["time_steps"] += 1
    reference[1]["final_err"] += 5e-11
    recs = wl.records(inputs, wl.solve(inputs))
    W.check_reference(recs, reference)
    assert [v.split()[0] for v in recs[0].violations] == ["time_steps"]
    assert recs[1].violations == []
    reference[1]["final_err"] += 1e-10
    recs = wl.records(inputs, wl.solve(inputs))
    W.check_reference(recs, reference)
    assert recs[1].violations and recs[1].violations[0].startswith("final error")
