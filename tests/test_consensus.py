import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distiht.consensus import (DiffusiveConsensus, WeightMatrix, bound_constants,
                               check_doubly_stochastic, consensus_step,
                               metropolis_weights, run_diffusive_consensus,
                               schedule_eta)
from distiht.graphs import (Graph, TvSchedule, gen_erdos_renyi,
                            gen_tv_schedule, static_schedule)


def reference_metropolis_weights(active_links, p: int) -> WeightMatrix:
    """The original per-link loop, kept as the oracle for the vectorized weights."""
    deg = np.zeros(p, dtype=int)
    links = [(min(u, v), max(u, v)) for u, v in active_links]
    for u, v in links:
        deg[u] += 1
        deg[v] += 1
    w = np.zeros((p, p))
    for u, v in links:
        w[u, v] = w[v, u] = 1.0 / (1.0 + max(deg[u], deg[v]))
    for q in range(p):
        w[q, q] = 1.0 - w[q].sum()
    eta = 1.0 / (1.0 + max(deg.max(initial=0), 0)) if p else 1.0
    return WeightMatrix(w=w, eta=float(eta))


def assert_weights_match_reference(links, p):
    fast, slow = metropolis_weights(links, p), reference_metropolis_weights(links, p)
    assert np.array_equal(fast.w, slow.w)
    assert fast.eta == slow.eta


class TestMetropolisWeights:
    def test_matches_reference_on_edge_cases(self):
        assert_weights_match_reference([], 4)
        assert_weights_match_reference([], 1)
        assert_weights_match_reference([(1, 0)], 2)
        g = gen_erdos_renyi(50, 0.25, 0)  # the benchmark's paper-scale graph
        assert_weights_match_reference(g.edges, 50)
        assert np.array_equal(metropolis_weights(iter(g.edges), 50).w,
                              metropolis_weights(g.edges, 50).w)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 70), st.integers(0, 10 ** 6), st.floats(0.0, 1.0))
    def test_matches_reference_on_random_links(self, p, seed, density):
        rng = np.random.default_rng(seed)
        pairs = [(i, j) if rng.random() < 0.5 else (j, i)
                 for i in range(p) for j in range(i + 1, p)]
        assert_weights_match_reference(
            [e for e in pairs if rng.random() < density], p)

    def test_two_agents_single_edge(self):
        w = metropolis_weights([(0, 1)], 2)
        np.testing.assert_allclose(w.w, [[0.5, 0.5], [0.5, 0.5]])
        assert w.eta == pytest.approx(0.5)

    def test_no_links_is_identity(self):
        w = metropolis_weights([], 4)
        np.testing.assert_array_equal(w.w, np.eye(4))

    def test_doubly_stochastic_on_random_graphs(self):
        for seed in range(5):
            g = gen_erdos_renyi(9, 0.4, seed)
            w = metropolis_weights(g.edges, 9)
            ones = np.ones(9)
            np.testing.assert_allclose(w.w @ ones, ones, atol=1e-12)
            np.testing.assert_allclose(ones @ w.w, ones, atol=1e-12)
            assert check_doubly_stochastic(w.w)
            # entry floor holds at the constructed eta
            nz = w.w[w.w > 0]
            assert nz.min() >= w.eta - 1e-15

    def test_complete_graph_averages_in_one_step(self):
        g = Graph(p=5, edges=[(i, j) for i in range(5) for j in range(i + 1, 5)])
        w = metropolis_weights(g.edges, 5)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(5)
        np.testing.assert_allclose(consensus_step(v, w),
                                   np.full(5, v.mean()), atol=1e-12)


class TestConsensusStep:
    def test_consensus_fixed_point(self):
        g = gen_erdos_renyi(6, 0.5, 1)
        w = metropolis_weights(g.edges, 6)
        v = np.full((6, 3), 2.5)
        np.testing.assert_allclose(consensus_step(v, w), v, atol=1e-12)

    def test_sum_conserved_over_many_steps(self):
        g = gen_erdos_renyi(8, 0.4, 2)
        w = metropolis_weights(g.edges, 8)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(8)
        total = v.sum()
        for _ in range(10_000):
            v = consensus_step(v, w)
        assert abs(v.sum() - total) <= 1e-10

    def test_dimension_mismatch(self):
        w = metropolis_weights([(0, 1)], 2)
        with pytest.raises(ValueError):
            consensus_step(np.zeros(3), w)


class TestDiffusive:
    def test_zero_steps_is_identity(self):
        g = gen_erdos_renyi(5, 0.5, 4)
        s = gen_tv_schedule(g, 4, 5)
        rng = np.random.default_rng(6)
        v0 = rng.standard_normal((5, 2))
        vals, initiated, _ = run_diffusive_consensus(s, None, v0, 0)
        np.testing.assert_array_equal(vals, v0)
        assert initiated[0] == 0 and all(t is None for t in initiated[1:])

    def test_two_agents_reach_mean(self):
        s = static_schedule(Graph(p=2, edges=[(0, 1)]))
        v0 = np.array([[1.0], [3.0]])
        vals, initiated, _ = run_diffusive_consensus(s, None, v0, 5)
        # INITIATE crosses in step 0; averaging starts in step 1
        assert initiated == [0, 1]
        np.testing.assert_allclose(vals, [[2.0], [2.0]], atol=1e-12)

    def test_static_complete_graph_converges_to_average(self):
        g = Graph(p=6, edges=[(i, j) for i in range(6) for j in range(i + 1, 6)])
        s = static_schedule(g)
        rng = np.random.default_rng(7)
        v0 = rng.standard_normal((6, 4))
        vals, _, _ = run_diffusive_consensus(s, None, v0, 60)
        target = v0.mean(axis=0)
        consts = bound_constants(schedule_eta(s), 6, 1)
        dev = float(np.max(np.linalg.norm(vals - target, axis=1)))
        bound = consts.big_gamma * consts.gamma ** 60 * float(
            np.linalg.norm(v0, axis=1).sum())
        assert dev <= bound
        assert dev <= 1e-6  # the averaging itself has long since mixed

    def test_uninitiated_rows_bit_unchanged(self):
        # agent 2 only hears about the run once the (1, 2) link shows up
        base = Graph(p=3, edges=[(0, 1), (1, 2)])
        s = TvSchedule(base=base, subgraphs=[[(0, 1)], [(0, 1)], [(1, 2)]])
        v0 = np.array([[1.0], [5.0], [-2.0]])
        machine = DiffusiveConsensus(3, 0, v0[0], background=v0.copy())
        machine.step(s.edges_at(0))
        machine.step(s.edges_at(1))
        assert machine.values[2, 0] == -2.0  # untouched so far
        assert machine.initiated_at[2] is None
        machine.step(s.edges_at(2))
        assert machine.initiated_at[2] == 3

    def test_sum_conserved_during_partial_activation(self):
        g = gen_erdos_renyi(7, 0.4, 8)
        s = gen_tv_schedule(g, 6, 9)
        rng = np.random.default_rng(10)
        v0 = rng.standard_normal((7, 3))
        machine = DiffusiveConsensus(7, 0, v0[0], background=v0.copy())
        for t in range(40):
            machine.step(s.edges_at(t))
            np.testing.assert_allclose(machine.values.sum(axis=0),
                                       v0.sum(axis=0), atol=1e-10)

    def test_activation_completes_within_window(self):
        for seed in range(10):
            g = gen_erdos_renyi(6, 0.35, 20 + seed)
            s = gen_tv_schedule(g, 8, 30 + seed)
            steps = 2 * (6 - 1) * s.period
            _, initiated, _ = run_diffusive_consensus(
                s, None, np.zeros((6, 1)), steps)
            assert all(t is not None for t in initiated)

    def test_negative_steps_rejected(self):
        s = static_schedule(Graph(p=2, edges=[(0, 1)]))
        with pytest.raises(ValueError):
            run_diffusive_consensus(s, None, np.zeros((2, 1)), -1)


class TestBoundConstants:
    def test_reference_values(self):
        c = bound_constants(0.5, 2, 1)
        assert c.d_bar == 2
        assert c.gamma == pytest.approx(math.sqrt(0.75))
        assert c.big_gamma == pytest.approx(2 * (1 + 4) / 0.75)

    def test_domain(self):
        for eta in (0.0, 1.0, 1.2, -0.3):
            with pytest.raises(ValueError):
                bound_constants(eta, 3, 1)
        with pytest.raises(ValueError):
            bound_constants(0.5, 1, 1)

    def test_second_reference_point_independent_path(self):
        c = bound_constants(0.2, 3, 1)
        d_bar = 2 * (3 - 1) * 1
        eta_d = 0.2 ** d_bar
        assert c.d_bar == d_bar
        assert c.gamma == pytest.approx((1 - eta_d) ** (1.0 / d_bar))
        assert c.big_gamma == pytest.approx(2 * (1 + 0.2 ** -d_bar) / (1 - eta_d))

    def test_tiny_eta_overflows_to_vacuous_bound(self):
        c = bound_constants(1e-4, 50, 10)
        assert c.big_gamma == math.inf
        assert 0 < c.gamma <= 1.0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_weight_matrix_invariants_property(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 10))
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    mask = rng.random(len(pairs)) < 0.4
    links = [pairs[i] for i in range(len(pairs)) if mask[i]]
    w = metropolis_weights(links, p)
    assert check_doubly_stochastic(w.w)
    deg = np.zeros(p, dtype=int)
    for u, v in links:
        deg[u] += 1
        deg[v] += 1
    for u, v in links:
        assert w.w[u, v] >= 1.0 / (1.0 + deg.max()) - 1e-15
