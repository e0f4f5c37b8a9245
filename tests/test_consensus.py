import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (BasisConsensus, assert_matches_basis_machine, cost_row,
                     scan_neighbours)

from distiht.consensus import (DiffusiveConsensus, Links, _directed,
                               bound_constants, check_doubly_stochastic,
                               directed_links, metropolis_matrix,
                               metropolis_weights, run_diffusive_consensus,
                               schedule_eta)
from distiht.graphs import (Graph, TvSchedule, gen_erdos_renyi,
                            gen_tv_schedule, static_schedule)


def reference_metropolis_weights(active_links, p: int) -> tuple:
    """The original per-link loop, kept as the oracle for the vectorized
    weights; returns (w, eta), eta = 1/(1 + max degree) being the floor of
    w's nonzero entries."""
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
    return w, float(eta)


def assert_weights_match_reference(links, p):
    fast, (slow, eta) = metropolis_weights(links, p), reference_metropolis_weights(links, p)
    assert np.array_equal(fast, slow)
    assert fast[fast > 0].min(initial=1.0) >= eta - 1e-15  # the entry floor


class TestMetropolisWeights:
    def test_matches_reference_on_edge_cases(self):
        assert_weights_match_reference([], 4)
        assert_weights_match_reference([], 1)
        assert_weights_match_reference([(1, 0)], 2)
        g = gen_erdos_renyi(50, 0.25, 0)  # the benchmark's paper-scale graph
        assert_weights_match_reference(g.edges, 50)
        assert np.array_equal(metropolis_weights(iter(g.edges), 50),
                              metropolis_weights(g.edges, 50))

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
        np.testing.assert_allclose(w, [[0.5, 0.5], [0.5, 0.5]])
        assert w[w > 0].min() == pytest.approx(1.0 / (1.0 + 1))  # max degree 1

    def test_no_links_is_identity(self):
        w = metropolis_weights([], 4)
        np.testing.assert_array_equal(w, np.eye(4))

    def test_doubly_stochastic_on_random_graphs(self):
        for seed in range(5):
            g = gen_erdos_renyi(9, 0.4, seed)
            w = metropolis_weights(g.edges, 9)
            ones = np.ones(9)
            np.testing.assert_allclose(w @ ones, ones, atol=1e-12)
            np.testing.assert_allclose(ones @ w, ones, atol=1e-12)
            assert check_doubly_stochastic(w)
            # entry floor holds at eta = 1/(1 + max degree)
            nz = w[w > 0]
            assert nz.min() >= 1.0 / (1.0 + g.max_degree()) - 1e-15

    def test_complete_graph_averages_in_one_step(self):
        g = Graph(p=5, edges=[(i, j) for i in range(5) for j in range(i + 1, 5)])
        w = metropolis_weights(g.edges, 5)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(5)
        np.testing.assert_allclose(w @ v, np.full(5, v.mean()), atol=1e-12)


class TestConsensusStep:
    def test_consensus_fixed_point(self):
        g = gen_erdos_renyi(6, 0.5, 1)
        w = metropolis_weights(g.edges, 6)
        v = np.full((6, 3), 2.5)
        np.testing.assert_allclose(w @ v, v, atol=1e-12)

    def test_sum_conserved_over_many_steps(self):
        g = gen_erdos_renyi(8, 0.4, 2)
        w = metropolis_weights(g.edges, 8)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(8)
        total = v.sum()
        for _ in range(10_000):
            v = w @ v
        assert abs(v.sum() - total) <= 1e-10

    def test_dimension_mismatch(self):
        w = metropolis_weights([(0, 1)], 2)
        with pytest.raises(ValueError):  # values for the wrong agent count fail loudly
            w @ np.zeros(3)


# The original single-instance machine, kept verbatim as the oracle for the
# multi-instance one.  It updates each row in a Python loop and lets only
# agents initiated before a step forward the INITIATE in it.
@dataclass
class StepStats:
    vector_sends: int = 0  # directed value transmissions this step
    initiate_sends: int = 0  # directed INITIATE transmissions this step
    vector_broadcasters: int = 0  # agents that sent at least one value
    initiate_broadcasters: int = 0  # agents that sent at least one INITIATE


class ReferenceDiffusiveConsensus:
    """Lockstep state machine for initiation-gated averaging on one instance.

    `value_at_initiation(agent, step)` supplies the vector an agent
    contributes when the INITIATE wave reaches it; agents hold their row
    bit-unchanged before that.  One object simulates one instance; the
    caller feeds it the link set of each time step.
    """

    def __init__(self, p: int, initiator: int, initiator_value: np.ndarray,
                 value_at_initiation: Optional[Callable[[int, int], np.ndarray]] = None,
                 background: Optional[np.ndarray] = None):
        self.p = p
        dim = np.atleast_1d(np.asarray(initiator_value, dtype=float)).shape[0]
        self.values = np.zeros((p, dim)) if background is None \
            else np.array(background, dtype=float)
        self.values[initiator] = np.asarray(initiator_value, dtype=float)
        self.initiated = np.zeros(p, dtype=bool)
        self.initiated[initiator] = True
        self.initiated_at: list = [None] * p
        self.initiated_at[initiator] = 0
        self.active = [set() for _ in range(p)]
        self.value_at_initiation = value_at_initiation
        self.step_count = 0

    def step(self, links) -> StepStats:
        stats = StepStats()
        pre_initiated = np.flatnonzero(self.initiated)
        present = [[] for _ in range(self.p)]
        for u, v in links:
            present[u].append(v)
            present[v].append(u)

        # averaging over mutually active links present this step
        active_nbrs = {int(q): [r for r in present[q] if r in self.active[q]]
                       for q in pre_initiated}
        deg = {q: len(nbrs) for q, nbrs in active_nbrs.items()}
        new_rows = {}
        for q in pre_initiated:
            q = int(q)
            nbrs = active_nbrs[q]
            row = self.values[q].copy()
            for r in nbrs:
                w = 1.0 / (1.0 + max(deg[q], deg[r]))
                row += w * (self.values[r] - self.values[q])
            new_rows[q] = row
            stats.vector_sends += len(nbrs)
            if nbrs:
                stats.vector_broadcasters += 1
        for q, row in new_rows.items():
            self.values[q] = row

        # INITIATE wave: pre-step initiated agents activate fresh links
        for q in pre_initiated:
            q = int(q)
            sent = False
            for r in present[q]:
                if r in self.active[q]:
                    continue
                stats.initiate_sends += 1
                sent = True
                self.active[q].add(r)
                self.active[r].add(q)
                if not self.initiated[r]:
                    # delivered during this step; participates from the next
                    self.initiated[r] = True
                    self.initiated_at[r] = self.step_count + 1
                    if self.value_at_initiation is not None:
                        self.values[r] = np.asarray(
                            self.value_at_initiation(r, self.step_count), dtype=float)
            if sent:
                stats.initiate_broadcasters += 1

        self.step_count += 1
        return stats


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 9), st.floats(0.2, 1.0), st.integers(1, 8),
       st.integers(0, 10 ** 6))
def test_diffusive_machine_matches_reference(p, density, count, seed):
    # the reference forwards INITIATE one step later, so the new machine
    # activates links no later, and rows agree until the link sets first differ
    schedule = gen_tv_schedule(gen_erdos_renyi(p, density, seed), count, seed + 1)
    periods = [directed_links(links) for links in schedule.subgraphs]
    v0 = np.random.default_rng(seed).standard_normal((p, 3))
    new = DiffusiveConsensus(p, 0, v0[0], background=v0.copy())
    basis = BasisConsensus(p, 0, v0[0], background=v0.copy())
    old = ReferenceDiffusiveConsensus(p, 0, v0[0], background=v0.copy())
    same = True
    for t in range(60):
        same = same and all(
            new.active[q].tolist() == [r in old.active[q] for r in range(p)]
            for q in range(p))
        assert np.array_equal(new.step(periods[t % schedule.period]),
                              cost_row(*basis.step(periods[t % schedule.period])))
        assert_matches_basis_machine(new, basis)
        old.step(schedule.edges_at(t))
        for q in range(p):
            assert all(new.active[q, r] for r in old.active[q])
            if old.initiated_at[q] is not None:
                assert new.initiated_at[q] <= old.initiated_at[q]
        if same:
            assert np.max(np.abs(new.values - old.values)) <= 1e-12
            assert np.max(np.abs(basis.values - old.values)) <= 1e-12


# The dense machine that the coefficient machine replaced, kept verbatim as
# its oracle: it mixes the (p, dim) value array itself at every step, and a
# `join(q, a)` callback supplies the row of an agent that adopts a fresher
# instance.
class DenseDiffusiveConsensus:
    """Lockstep state machine for initiation-gated averaging over instances.

    Agent q holds the row `values[q]` and the number `inst[q]` of the
    instance it joined (-1 before it joins any); `active[a, q]` says that a
    activated its link to q.  An instance opens at one agent and spreads by
    INITIATE messages along the links each step offers; an agent adopts any
    fresher instance that reaches it and drops its old links.  Agents that
    have not joined, or have no same-instance active link this step, hold
    their row bit-unchanged.
    """

    def __init__(self, p: int, initiator: int, initiator_value: np.ndarray,
                 background: Optional[np.ndarray] = None):
        self.p = p
        dim = np.atleast_1d(np.asarray(initiator_value, dtype=float)).shape[0]
        self.values = np.zeros((p, dim)) if background is None \
            else np.array(background, dtype=float)
        self.inst = np.full(p, -1, dtype=int)
        self.active = np.zeros((p, p), dtype=bool)
        self.initiated_at: list = [None] * p  # step from which each takes part
        self.step_count = 0
        self.open(0, initiator, initiator_value)

    def open(self, instance: int, agent: int, value: np.ndarray) -> None:
        """Start `instance` at `agent`, which contributes `value` and
        re-activates its links from scratch."""
        self.values[agent] = value
        self.active[agent] = False
        self.inst[agent] = instance
        self.initiated_at[agent] = self.step_count

    def step(self, links, join: Optional[Callable[[int, int], np.ndarray]] = None):
        """One synchronous step over `links` (a `Links` or a list of pairs).

        Values first move over the links their sender had activated, and
        agents average with same-instance neighbours under Metropolis
        weights.  Then the INITIATE wave runs in agent-index order; an agent
        that joins from a lower-indexed sender forwards in this step.  When
        q adopts a's fresher instance, `join(q, a)`, if given, supplies q's
        new row.  Returns each agent's value sends and INITIATE fan-out.
        """
        if not isinstance(links, Links):
            links = directed_links(links)
        src, dst = links
        nbrs = scan_neighbours(links, self.p)
        inst, active = self.inst, self.active
        live = active[src, dst]

        # the far end of a live same-instance link is active too, since
        # instances only grow and an INITIATE activates both ends at once
        avg = live & (inst[src] == inst[dst])
        if avg.any():
            w, deg = metropolis_matrix(src[avg], dst[avg], self.p)
            mixed = w @ self.values
            mixed[deg == 0] = self.values[deg == 0]  # holders keep their row bit-exact
            self.values = mixed
        # every joined agent ships its row on its live links, whether or not
        # the far end still listens to its instance
        sends = np.bincount(src[live], minlength=self.p)

        fanout = np.zeros(self.p, dtype=int)
        pending = np.bincount(src[~live & (inst[src] >= 0)], minlength=self.p).tolist()
        for a in range(self.p):
            if not pending[a]:
                continue
            fresh = [q for q in nbrs[a] if not active[a, q]]
            if not fresh:
                continue
            fanout[a] = len(fresh)
            active[a, fresh] = True
            ka = int(inst[a])
            for q in fresh:
                if ka > inst[q]:
                    inst[q] = ka
                    active[q] = False
                    active[q, a] = True
                    self.initiated_at[q] = self.step_count + 1
                    if join is not None:
                        self.values[q] = join(q, a)
                    pending[q] = True
                elif ka == inst[q]:
                    active[q, a] = True  # pure link activation
                # an already-fresher receiver ignores the message
        self.step_count += 1
        return sends, fanout



@settings(max_examples=120, deadline=None)
@given(st.integers(2, 9), st.floats(0.2, 1.0), st.integers(1, 8),
       st.integers(0, 10 ** 6), st.integers(1, 4), st.floats(0.0, 0.5))
def test_coefficient_machine_matches_dense(p, density, count, seed, dim, reopen):
    # agent 0 reopens with fresh random contributions now and then, so stale
    # instances live on at far agents while fresher ones spread
    schedule = gen_tv_schedule(gen_erdos_renyi(p, density, seed), count, seed + 1)
    periods = [directed_links(links) for links in schedule.subgraphs]
    rng = np.random.default_rng(seed)
    bases = {0: rng.standard_normal((p, dim)) * 10.0 ** rng.uniform(-3, 3)}
    new = DiffusiveConsensus(p, 0, bases[0][0], background=bases[0])
    basis = BasisConsensus(p, 0, bases[0][0], background=bases[0])
    old = DenseDiffusiveConsensus(p, 0, bases[0][0], background=bases[0].copy())
    for t in range(60):
        if rng.random() < reopen:
            fresh = len(bases)
            bases[fresh] = rng.standard_normal((p, dim)) * 10.0 ** rng.uniform(-3, 3)
            new.open(fresh, 0)
            basis.open(fresh, 0, bases[fresh])
            old.open(fresh, 0, bases[fresh][0])
        got = new.step(periods[t % schedule.period])
        mid = basis.step(periods[t % schedule.period])
        want = old.step(periods[t % schedule.period],
                        lambda q, a: bases[int(old.inst[a])][q])
        assert all(np.array_equal(u, v) for u, v in zip(mid, want))
        assert np.array_equal(got, cost_row(*want))
        assert_matches_basis_machine(new, basis)
        assert np.array_equal(new.inst, old.inst)
        assert np.array_equal(new.active, old.active)
        assert new.initiated_at == old.initiated_at
        assert len(basis.bases) <= len(set(basis.inst.tolist())) + 1
        for i in set(new.inst.tolist()):  # the background is instance 0's basis
            rows, scale = new.inst == i, float(np.max(np.abs(bases[max(i, 0)])))
            for values in (new.coef[rows] @ bases[max(i, 0)], basis.values[rows]):
                np.testing.assert_allclose(values, old.values[rows],
                                           rtol=1e-12, atol=1e-12 * scale)


class TestDiffusive:
    def test_zero_steps_is_identity(self):
        g = gen_erdos_renyi(5, 0.5, 4)
        s = gen_tv_schedule(g, 4, 5)
        rng = np.random.default_rng(6)
        v0 = rng.standard_normal((5, 2))
        vals, initiated = run_diffusive_consensus(s, v0, 0)
        np.testing.assert_array_equal(vals, v0)
        assert initiated[0] == 0 and all(t is None for t in initiated[1:])

    def test_two_agents_reach_mean(self):
        s = static_schedule(Graph(p=2, edges=[(0, 1)]))
        v0 = np.array([[1.0], [3.0]])
        vals, initiated = run_diffusive_consensus(s, v0, 5)
        # INITIATE crosses in step 0; averaging starts in step 1
        assert initiated == [0, 1]
        np.testing.assert_allclose(vals, [[2.0], [2.0]], atol=1e-12)

    def test_static_complete_graph_converges_to_average(self):
        g = Graph(p=6, edges=[(i, j) for i in range(6) for j in range(i + 1, 6)])
        s = static_schedule(g)
        rng = np.random.default_rng(7)
        v0 = rng.standard_normal((6, 4))
        vals, _ = run_diffusive_consensus(s, v0, 60)
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

    def test_initiator_value_replaces_its_background_row(self):
        background = np.arange(8.0).reshape(4, 2)
        for bg in (background, None):
            machine = DiffusiveConsensus(4, 2, [-1.0, -2.0], background=bg)
            oracle = BasisConsensus(4, 2, [-1.0, -2.0], background=bg)
            want = np.zeros((4, 2)) if bg is None else background.copy()
            want[2] = [-1.0, -2.0]
            assert machine.values.tobytes() == want.tobytes()
            assert oracle.values.tobytes() == want.tobytes()
        assert background[2].tolist() == [4.0, 5.0]  # the caller's array is copied

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
            _, initiated = run_diffusive_consensus(
                s, np.zeros((6, 1)), steps)
            assert all(t is not None for t in initiated)

    def test_negative_steps_rejected(self):
        s = static_schedule(Graph(p=2, edges=[(0, 1)]))
        with pytest.raises(ValueError):
            run_diffusive_consensus(s, np.zeros((2, 1)), -1)


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
    assert check_doubly_stochastic(w)
    deg = np.zeros(p, dtype=int)
    for u, v in links:
        deg[u] += 1
        deg[v] += 1
    for u, v in links:
        assert w[u, v] >= 1.0 / (1.0 + deg.max()) - 1e-15


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(lambda p: st.tuples(
    st.just(p), st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))
                         .filter(lambda e: e[0] != e[1]).map(sorted).map(tuple),
                         max_size=3 * p, unique=True).flatmap(st.permutations))))
def test_directed_links_lists_every_link_both_ways(case):
    _, links = case
    got = directed_links(links)
    src, dst = _directed(links)
    assert got.src.tobytes() == src.tobytes() and got.dst.tobytes() == dst.tobytes()
    assert list(zip(src.tolist(), dst.tolist())) == links + [(v, u) for u, v in links]
