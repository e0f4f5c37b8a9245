"""Differential oracles for the lockstep subgradient kernel and the grid that
batches it.

Every member of a batch must match the one-run loop in `oracles.py` bit for
bit: worst errors, estimate bytes, stop and metrics.  The grid, which runs
its subgradient cells as batches, must write the same files, byte for byte,
as the per-cell grid with the row-wise curve writer.
"""
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import loop_run_subgradient, percell_run_experiment, rowwise_write_metrics_csv

from distiht import harness, subgradient
from distiht.graphs import gen_erdos_renyi, gen_tv_schedule, static_schedule
from distiht.harness import GraphSpec, parse_config_text, run_cell, run_experiment, write_report
from distiht.model import generate_problem
from distiht.subgradient import (BLOCK, SubgradConfig, orthonormal_slices, run_lockstep,
                                 run_subgradient)


def assert_same_run(got, want):
    (trace, metrics), (ref_trace, ref_metrics) = got, want
    assert trace.worst_errors == ref_trace.worst_errors
    assert trace.converged_at == ref_trace.converged_at
    assert trace.estimates.shape == ref_trace.estimates.shape
    assert trace.estimates.tobytes() == ref_trace.estimates.tobytes()
    assert metrics == ref_metrics


def member(p, m, seed, period, zero=False):
    """A (problem, schedule, slices) member; a zero signal stops at iteration 1."""
    prob = generate_problem(m + 4, m, 0 if zero else 2, p, seed=seed,
                            ensemble="tight-frame")
    graph = gen_erdos_renyi(p, 0.7, seed)
    schedule = (gen_tv_schedule(graph, period, seed + 1) if period > 1
                else static_schedule(graph))
    return prob, schedule, orthonormal_slices(prob)


@settings(max_examples=40, deadline=None)
@given(p=st.integers(2, 5), rows=st.integers(2, 3), uneven=st.booleans(),
       period=st.sampled_from([1, 3]),
       seeds=st.lists(st.integers(0, 6), min_size=1, max_size=6),
       zeros=st.sets(st.integers(0, 5)), max_iters=st.sampled_from([1, 2, 40, 700, 4100]),
       tol=st.sampled_from([0.5, 0.2, 0.05]), exponent=st.sampled_from([0.6, 0.8, 1.0]))
def test_every_member_matches_the_loop(p, rows, uneven, period, seeds, zeros, max_iters,
                                       tol, exponent):
    # repeated seeds and zero signals make members that stop together
    m = p * rows + (p - 1 if uneven else 0)  # padded rows when uneven
    members = [member(p, m, s, period, i in zeros) for i, s in enumerate(seeds)]
    config = SubgradConfig(step_exponent=exponent, max_iters=max_iters, tol=tol)
    for got, (prob, schedule, _) in zip(run_lockstep(members, config), members):
        assert_same_run(got, loop_run_subgradient(prob, schedule, config))


@pytest.mark.parametrize("period, max_iters, tol", [(1, 500, 0.05), (3, 500, 0.05),
                                                    (1, 6000, 0.01)])
def test_members_stop_at_different_iterations(period, max_iters, tol):
    # the last member repeats the fourth, so the two stop together
    members = [member(4, 9, s, period, zero=s == 2) for s in [*range(8), 3]]
    config = SubgradConfig(step_exponent=0.8, max_iters=max_iters, tol=tol)
    want = [loop_run_subgradient(prob, schedule, config)
            for prob, schedule, _ in members]
    stops = [trace.converged_at for trace, _ in want]
    # one member at iteration 1, some at different later ones, some at the
    # budget; a long budget also stops one in its second block of errors
    assert stops[2] == 1 and None in stops
    assert len({s for s in stops if s not in (None, 1)}) >= 2
    assert max_iters <= BLOCK or any(s and s > BLOCK for s in stops)
    for got, ref in zip(run_lockstep(members, config), want):
        assert_same_run(got, ref)


def test_a_batch_ends_when_every_member_has_stopped():
    # stepping on to a budget of ten million would take minutes
    members = [member(4, 9, s, 1, zero=s == 2) for s in (2, 4, 2)]
    config = SubgradConfig(step_exponent=0.8, max_iters=10_000_000, tol=0.05)
    for got, (prob, schedule, _) in zip(run_lockstep(members, config), members):
        want = loop_run_subgradient(prob, schedule, config)
        assert want[0].converged_at is not None
        assert_same_run(got, want)


def test_tol_zero_never_stops_a_member():
    # the K = 0 member's errors are all 0; the K = 2 member's are positive
    schedule = static_schedule(gen_erdos_renyi(4, 0.7, 1))
    members = [(prob, schedule, orthonormal_slices(prob))
               for prob in (generate_problem(20, 10, k, 4, seed=1) for k in (0, 2))]
    runs = list(run_lockstep(members, SubgradConfig(max_iters=3, tol=0.0)))
    assert [trace.converged_at for trace, _ in runs] == [None, None]
    assert [len(trace.worst_errors) for trace, _ in runs] == [3, 3]
    assert runs[0][0].worst_errors == [0.0, 0.0, 0.0]


def test_a_run_is_a_batch_of_one():
    prob, schedule, slices = member(5, 12, 3, 3)
    config = SubgradConfig(max_iters=300, tol=0.1)
    got = run_subgradient(prob, schedule, config)
    assert_same_run(got, loop_run_subgradient(prob, schedule, config))
    assert_same_run(got, next(run_lockstep([(prob, schedule, slices)], config)))


def test_a_batch_rejects_members_of_two_shapes():
    config = SubgradConfig(max_iters=5)
    with pytest.raises(ValueError, match="same shape"):
        list(run_lockstep([member(4, 8, 0, 1), member(4, 8, 1, 3)], config))


GRID = """
[meta]
schema_version = 1

[problem]
n = 30
m = 14
k = 2
p = 4
ensemble = tight-frame
seeds = 0, 1, 3

[graphs]
families = er:0.75, geo:0.9
seeds = 0, 1

[algorithms]
run = iht, diht, cbdiht, subgrad
step_exponent = 0.8

[run]
accuracies = 2e-1, 8e-2
max_iters = 400
subgraph_count = 3
"""


def grid_files(run, cfg, out_dir, write_curve=None):
    with mock.patch.object(harness, "write_metrics_csv",
                           write_curve or harness.write_metrics_csv):
        written = write_report(run(cfg), out_dir)
    files = {}
    for path in written:
        with open(path, "rb") as fh:
            files[os.path.relpath(path, out_dir)] = fh.read()
    return files


@pytest.mark.parametrize("time_varying", [False, True])
def test_grid_writes_the_per_cell_files(time_varying, tmp_path):
    cfg = parse_config_text(GRID)
    cfg.time_varying = time_varying
    got = grid_files(run_experiment, cfg, str(tmp_path / "got"))
    want = grid_files(percell_run_experiment, cfg, str(tmp_path / "want"),
                      rowwise_write_metrics_csv)
    assert list(got) == list(want)
    assert got == want
    runs = want["runs.csv"].decode()
    # on a schedule every DIHT cell is an error cell; some subgradient cells
    # converge and some spend the budget
    assert ("ValueError: the tree-based algorithm" in runs) == time_varying
    subgrad = [line.split(",")[5] for line in runs.splitlines() if ",subgrad," in line]
    assert "0" in subgrad and "1" in subgrad


def test_a_projector_that_raises_is_its_cells_error(tmp_path):
    cfg = parse_config_text(GRID)
    bad = generate_problem(cfg.n, cfg.m, cfg.k, cfg.p, seed=1,
                           ensemble="tight-frame").slices[2]
    real = subgradient.AffineProjector

    def projector(sl, agent=None):
        if np.array_equal(sl.a, bad.a):
            raise np.linalg.LinAlgError(f"rank-deficient measurement rows at agent {agent}")
        return real(sl, agent)

    clean = run_experiment(cfg)
    with mock.patch.object(subgradient, "AffineProjector", projector):
        got = grid_files(run_experiment, cfg, str(tmp_path / "got"))
        want = grid_files(percell_run_experiment, cfg, str(tmp_path / "want"),
                          rowwise_write_metrics_csv)
        report = run_experiment(cfg)
    assert got == want
    for before, after in zip(clean.cells, report.cells):
        if after.algorithm == "subgrad" and after.problem_seed == 1:
            assert after.error == ("LinAlgError: rank-deficient measurement rows "
                                   "at agent 2")
            assert not after.converged and after.iterations == 0
        else:
            assert after == before
    assert sorted(clean.curves) == sorted(
        set(report.curves) | {label for label in clean.curves
                              if label.endswith("-p1-subgrad")})
    for label, (metrics, _) in report.curves.items():
        assert metrics == clean.curves[label][0]


def test_run_cell_equals_the_grid_cell():
    cfg = parse_config_text(GRID)
    cfg.algorithms, cfg.time_varying = ["subgrad"], True
    report = run_experiment(cfg)
    cells = iter(report.cells)
    for pseed in cfg.problem_seeds:
        prob = generate_problem(cfg.n, cfg.m, cfg.k, cfg.p, seed=pseed,
                                ensemble="tight-frame")
        for spec in cfg.graphs:
            for gseed in cfg.graph_seeds:
                result = run_cell(prob, spec, gseed, "subgrad", cfg)
                label = f"{spec.label}-g{gseed}-p{pseed}-subgrad"
                assert report.curves[label] == (result.metrics, ())
                for acc in cfg.accuracies:
                    cell = next(cells)
                    hit = result.crossings.get(acc)
                    assert (cell.converged, cell.iterations, cell.values, cell.messages,
                            cell.broadcasts, cell.time_steps) == (
                        hit is not None, *(hit or result.spent))


def test_problem_slices_are_built_once_per_problem():
    cfg = parse_config_text(GRID)
    cfg.algorithms = ["subgrad", "iht"]
    cfg.graphs = [GraphSpec("er", 0.75), GraphSpec("geo", 0.9)]
    with mock.patch.object(subgradient, "orthonormal_slices",
                           wraps=subgradient.orthonormal_slices) as built, \
            mock.patch.object(subgradient, "run_lockstep",
                              wraps=subgradient.run_lockstep) as batches:
        run_experiment(cfg)
    assert built.call_count == len(cfg.problem_seeds)
    assert batches.call_count == 1
    assert len(batches.call_args.args[0]) == 3 * 2 * 2
