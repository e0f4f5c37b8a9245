"""Kernel micro-benchmarks: one layer's call at a fixed size, timed in isolation.

Each kernel is called in batches long enough to dwarf the timer's
resolution; a sample is the batch time per call and each kernel reports the
median and quartiles of its samples.  Inputs come from the workload seed at
the benchmark's scale (paper scale unless smoke mode shrinks it).
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from tracer import Tracer
from workloads import TRACE_TARGETS, Scale
from distiht import cbdiht, consensus, diht, graphs, iht, model, subgradient  # noqa: I001

SAMPLES = 9


def _samples(min_s: float, fn, per_call: float = 1.0) -> list:
    """Seconds per unit of work, where fn() does ``per_call`` units."""
    number = 1
    while True:
        t0 = perf_counter()
        for _ in range(number):
            fn()
        elapsed = perf_counter() - t0
        if elapsed >= min_s:
            break
        number *= 2
    out = [elapsed / (number * per_call)]
    for _ in range(SAMPLES - 1):
        t0 = perf_counter()
        for _ in range(number):
            fn()
        out.append((perf_counter() - t0) / (number * per_call))
    return out


def _summary(values: list, unit_scale: float) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med * unit_scale, q1 * unit_scale, q3 * unit_scale


def _cbdiht_step_samples(problem, schedule, outer: int) -> list:
    """Self time of run_cbdiht per simulated step, one traced run per sample."""
    out = []
    for _ in range(5):
        tracer = Tracer()
        with tracer.installed(TRACE_TARGETS):
            run = cbdiht.run_cbdiht(problem, schedule,
                                    stop=diht.StopRule(tol=0.0, max_iters=outer),
                                    keep_iterates=False)
        _calls, self_s = tracer.self_times()["cbdiht.run_cbdiht"]
        out.append(self_s / run.metrics.time_steps)
    return out


def run_micro(seed: int, scale: Scale) -> dict:
    """Metric name -> (median, q1, q3) in the unit the name ends with."""
    rng = np.random.default_rng(seed)
    p, k = scale.p, scale.k
    problem = model.generate_problem(scale.n, scale.m, k, p, seed=seed,
                                     ensemble="tight-frame")
    graph = graphs.gen_erdos_renyi(p, 0.25, seed)
    tree = graphs.bfs_spanning_tree(graph)
    x = problem.x_star
    a, b = problem.stacked()
    v3, v5 = rng.standard_normal(1000), rng.standard_normal(100_000)
    slice_grads = [model.loss_gradient(sl, x) for sl in problem.slices]
    schedule = graphs.gen_tv_schedule(graph, 10, seed + 1000)
    outer = 20 if scale.n >= 1000 else 3
    eps_run = cbdiht.run_cbdiht(problem, schedule,
                                stop=diht.StopRule(tol=0.0, max_iters=outer))

    machine = consensus.DiffusiveConsensus(
        p, 0, slice_grads[0], background=np.array(slice_grads))
    for _ in range(p):  # every agent initiated and every link active
        machine.step(graph.edges)

    desk = model.generate_problem(100, 50, 5, 10, seed=seed, ensemble="tight-frame")
    desk_graph = graphs.gen_erdos_renyi(10, 0.25, seed)
    paper_iters, desk_iters = (50, 500) if scale.n >= 1000 else (5, 50)

    def subgrad(prob, g, iters):
        config = subgradient.SubgradConfig(step_exponent=0.8, max_iters=iters, tol=0.0)
        return lambda: subgradient.run_subgradient(prob, g, config)

    us, ms, t = 1e6, 1e3, scale.micro_sample_s
    return {
        "iht.hard_threshold_n1e3_us": _summary(
            _samples(t, lambda: iht.hard_threshold(v3, k)), us),
        "iht.hard_threshold_n1e5_us": _summary(
            _samples(t, lambda: iht.hard_threshold(v5, k)), us),
        "model.slice_gradients_us": _summary(_samples(t,
            lambda: [model.loss_gradient(sl, x) for sl in problem.slices]), us),
        "model.stacked_gradient_us": _summary(
            _samples(t, lambda: 2.0 * (a.T @ (a @ x - b))), us),
        "model.generate_problem_ms": _summary(_samples(t,
            lambda: model.generate_problem(scale.n, scale.m, k, p, seed=seed,
                                           ensemble="tight-frame")), ms),
        "graphs.gen_tv_schedule_ms": _summary(
            _samples(t, lambda: graphs.gen_tv_schedule(graph, 10, seed + 1000)), ms),
        "diht.convergecast_sum_us": _summary(
            _samples(t, lambda: diht.convergecast_sum(tree, slice_grads)), us),
        "cbdiht.step_us": _summary(_cbdiht_step_samples(problem, schedule, outer), us),
        "cbdiht.epsilon_series_ms": _summary(
            _samples(t, lambda: cbdiht.epsilon_series(eps_run)), ms),
        "consensus.metropolis_weights_us": _summary(
            _samples(t, lambda: consensus.metropolis_weights(graph.edges, p)), us),
        "consensus.diffusive_step_us": _summary(
            _samples(t, lambda: machine.step(graph.edges)), us),
        "subgradient.iter_us.paper": _summary(
            _samples(t, subgrad(problem, graph, paper_iters), per_call=paper_iters), us),
        "subgradient.iter_us.desk": _summary(
            _samples(t, subgrad(desk, desk_graph, desk_iters), per_call=desk_iters), us),
    }
