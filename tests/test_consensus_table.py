"""The diffusive machine's transition table against machines that step
without one.

`DiffusiveConsensus.advance` replays each step it has seen from a table keyed
on the period phase, the agents' instance ranks and the activation matrix,
and its `step` is `advance` over one link set.  Two oracles, both of which
keep each instance's contributions, drive the same actions: the machine
before it became coefficient-only, stepped one `reference_transition` at a
time, and the machine before that, whose `step` mutated its state in place
and whose table misses ran that `step` on the machine itself from
`coef = I`.  Each must agree with the machine bit for bit on the
coefficients, instances, activations, join steps and traffic, with `open`
and direct `step` calls interleaved.  The table-miss kernel, which runs on
Python-int state, is also checked entry by entry against the kernel that ran
on numpy arrays.
"""
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (BasisConsensus, assert_matches_basis_machine, cbdiht_settings,
                     cost_row, reference_decode, reference_entry, reference_key,
                     scan_neighbours)

from distiht import cbdiht, consensus
from distiht.cbdiht import run_cbdiht
from distiht.consensus import (DiffusiveConsensus, Links, directed_links,
                               metropolis_matrix)
from distiht.diht import StopRule
from distiht.graphs import Graph, TvSchedule, gen_erdos_renyi, gen_tv_schedule
from distiht.model import generate_problem


def random_periods(rng, p: int, period: int, density: float) -> list:
    # any link set, so an agent may be cut off for a phase or for good
    pairs = [(u, v) for u in range(p) for v in range(u + 1, p)]
    return [directed_links([e for e in pairs if rng.random() < density])
            for _ in range(period)]


def step_by_step(machine: BasisConsensus, periods: list, steps: int) -> np.ndarray:
    total = np.zeros(4, dtype=np.int64)
    for _ in range(steps):
        total += cost_row(*machine.step(periods[machine.step_count % len(periods)]))
    return total


class PreviousMachine(BasisConsensus):
    """The machine before its step became the pure `reference_transition`,
    with these methods kept verbatim (the table cap read from the module)."""

    def step(self, links):
        """One synchronous step over `links` (a `Links` or a list of pairs).

        Values first move over the links their sender had activated, and
        agents average with same-instance neighbours under Metropolis
        weights, which mix the coefficient rows.  Then the INITIATE wave runs
        in agent-index order; an agent that joins from a lower-indexed sender
        forwards in this step.  Returns each agent's value sends and
        INITIATE fan-out.
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
            mixed = w @ self.coef
            mixed[deg == 0] = self.coef[deg == 0]  # holders keep their row bit-exact
            self.coef = mixed
        # every joined agent ships its row on its live links, whether or not
        # the far end still listens to its instance
        sends = np.bincount(src[live], minlength=self.p)

        fanout = np.zeros(self.p, dtype=int)
        joined = []
        pending = np.bincount(src[~live & (inst[src] >= 0)], minlength=self.p).tolist()
        for a in range(self.p):
            if not pending[a]:
                continue
            fresh = [q for q in nbrs[a] if not active[a, q]]
            if not fresh:
                continue
            fanout[a] = len(fresh)
            ka = int(inst[a])
            for q in fresh:
                active[a, q] = True
                if ka > inst[q]:
                    inst[q] = ka
                    active[q] = False
                    active[q, a] = True
                    self.initiated_at[q] = self.step_count + 1
                    joined.append(q)
                    pending[q] = True
                elif ka == inst[q]:
                    active[q, a] = True  # pure link activation
                # an already-fresher receiver ignores the message
        if joined:
            # a joiner contributes its own row of its new instance's basis
            self.coef[joined] = 0.0
            self.coef[joined, joined] = 1.0
            self._prune()
        self.step_count += 1
        return sends, fanout

    def advance(self, periods: list, steps: int) -> np.ndarray:
        """Run `steps` steps, step t over `periods[t % len(periods)]` (a list
        of `Links`); return the summed (sends, fan-out, senders, initiators).

        The first visit to a (state, phase) runs `step` on `coef = I` to read
        its mixing matrix W off; later visits replay it bit for bit as
        `coef = W @ coef`, a joiner reset and a cost-row add.  The state is
        hashed on entry, so `open` and `step` calls in between are fine.
        """
        total, steps = np.zeros(4, dtype=np.int64), max(steps, 0)
        if periods is not self._periods:  # a new list of links starts a new table
            self._periods, self._table = periods, {}
        p, start, coef = self.p, self.step_count, self.coef
        u = np.array(sorted(set(self.inst.tolist()) | {-1}))  # rank -> instance
        key = self._key(np.searchsorted(u, self.inst), self.active)
        for t in range(start, start + steps):
            entry = self._table.get((key, t % len(periods))) or self._learn(key, u, t)
            key, kept, mix, joiners, row = entry
            u = u[kept]
            if mix is not None:  # scatter W's nonzeros into a zeroed (p, p)
                coef = np.bincount(*mix, minlength=p * p).reshape(p, p) @ coef
            if joiners is not None:  # a joiner restarts from row e_q
                coef[joiners] = 0.0
                coef[joiners, joiners] = 1.0
                for q in joiners.tolist():
                    self.initiated_at[q] = t + 1
            total += row
        ranks, self.active = self._decode(key)
        self.inst, self.coef, self.step_count = u[ranks], coef, start + steps
        self._prune()
        return total

    def _key(self, ranks: np.ndarray, active: np.ndarray) -> bytes:
        return ranks.astype(np.int32).tobytes() + np.packbits(active).tobytes()

    def _decode(self, key: bytes) -> tuple:
        p = self.p
        bits = np.unpackbits(np.frombuffer(key, np.uint8, offset=4 * p), count=p * p)
        return np.frombuffer(key, np.int32, count=p), bits.reshape(p, p).astype(bool)

    def _learn(self, key: bytes, u: np.ndarray, t: int) -> tuple:
        """Run step t from the state `key` (ranks over the instances `u`) on
        `coef = I` and store what it did; `advance` writes the state back."""
        if len(self._table) >= consensus.TABLE_CAP:
            self._table = {}
        ranks, self.active = self._decode(key)
        self.inst, self.coef, self.step_count = u[ranks], np.eye(self.p), t
        sends, fanout = self.step(self._periods[t % len(self._periods)])
        after = np.searchsorted(u, self.inst)
        joiners = np.flatnonzero(after != ranks)
        kept = np.flatnonzero(np.bincount(np.append(after, 0)))  # next rank -> rank
        nonzero = np.flatnonzero(self.coef)  # the diagonal and each mixing row's links
        entry = self._table[key, t % len(self._periods)] = (
            self._key(np.searchsorted(kept, after), self.active), kept,
            None if len(nonzero) == self.p else (nonzero, self.coef.ravel()[nonzero]),
            joiners if len(joiners) else None,
            np.array([sends.sum(), fanout.sum(), np.count_nonzero(sends),
                      np.count_nonzero(fanout)]))
        return entry


def drive(slow_type, slow_advance, p, period, density, seed, dim, actions, cap):
    """Run the same actions on the machine and on an oracle of `slow_type`
    whose `advance` is `slow_advance`, comparing them after each."""
    rng = np.random.default_rng(seed)
    periods = random_periods(rng, p, period, density)
    first = rng.standard_normal((p, dim))
    fast = DiffusiveConsensus(p, 0, first[0], background=first)
    slow = slow_type(p, 0, first[0], background=first)
    opened = 0
    for action, n in actions:
        if action == "open":  # a fresher instance at any agent
            opened += 1
            contributions = rng.standard_normal((p, dim))
            fast.open(opened, n % p)
            slow.open(opened, n % p, contributions)
        elif action == "step":  # the oracle's per-agent sends and fan-out, reduced
            links = periods[fast.step_count % period]
            assert np.array_equal(fast.step(links), cost_row(*slow.step(links)))
        else:
            with mock.patch.object(consensus, "TABLE_CAP", cap):  # 2 clears it often
                got, want = fast.advance(periods, n), slow_advance(slow, periods, n)
            assert np.array_equal(got, want)
            assert len(fast._table) <= cap
        assert_matches_basis_machine(fast, slow)


ACTIONS = given(
    st.integers(2, 12) | st.integers(65, 70), st.integers(1, 4), st.floats(0.1, 1.0),
    st.integers(0, 10 ** 6), st.integers(1, 3),
    st.lists(st.tuples(st.sampled_from(["advance", "advance", "step", "open"]),
                       st.integers(0, 12)), min_size=1, max_size=14),
    st.sampled_from([consensus.TABLE_CAP, 2]))


@settings(max_examples=120, deadline=None)
@ACTIONS
def test_table_matches_step_by_step(p, period, density, seed, dim, actions, cap):
    drive(BasisConsensus, step_by_step, p, period, density, seed, dim, actions, cap)


@settings(max_examples=120, deadline=None)
@ACTIONS
def test_matches_the_previous_machine(p, period, density, seed, dim, actions, cap):
    drive(PreviousMachine, PreviousMachine.advance, p, period, density, seed, dim,
          actions, cap)


def test_entries_depend_on_ranks_not_instance_numbers():
    # two machines whose instance numbers differ but whose ranks, activations
    # and phases agree learn byte-equal table entries
    p, period = 7, 3
    periods = random_periods(np.random.default_rng(5), p, period, 0.5)
    first = np.random.default_rng(6).standard_normal((p, 2))
    one = DiffusiveConsensus(p, 0, first[0], background=first)
    other = DiffusiveConsensus(p, 0, first[0], background=first)
    other.open(40, 0)  # the constructor's instance, reopened before any step
    for instance in range(1, 7):
        one.advance(periods, 2 * period - instance % 2)
        other.advance(periods, 2 * period - instance % 2)
        assert not np.array_equal(one.inst, other.inst)
        one.open(instance, 0)
        other.open(40 + 7 * instance, 0)
    assert len(one._table) > period
    assert one._table.keys() == other._table.keys()
    for key, entry in one._table.items():
        assert pickle.dumps(entry) == pickle.dumps(other._table[key])


def test_hits_replay_the_learned_step():
    # a static complete graph settles into one state, so nearly every step
    # after the first few is a table hit
    p = 6
    periods = [directed_links([(u, v) for u in range(p) for v in range(u + 1, p)])]
    first = np.random.default_rng(3).standard_normal((p, 2))
    fast = DiffusiveConsensus(p, 0, first[0], background=first)
    slow = BasisConsensus(p, 0, first[0], background=first)
    assert np.array_equal(fast.advance(periods, 40), step_by_step(slow, periods, 40))
    assert_matches_basis_machine(fast, slow)
    assert len(fast._table) <= 3


@pytest.mark.parametrize("seed", range(4))
def test_reopening_replays_the_joins(seed):
    # as in CB-DIHT, agent 0 opens a fresh instance at the same phase each
    # round, so the INITIATE wave's joins are table hits from round two on
    p, period = 7, 2
    periods = random_periods(np.random.default_rng(seed), p, period, 0.5)
    first = np.random.default_rng(seed).standard_normal((p, 2))
    fast = DiffusiveConsensus(p, 0, first[0], background=first)
    slow = BasisConsensus(p, 0, first[0], background=first)
    for instance in range(1, 9):
        assert np.array_equal(fast.advance(periods, 2 * period),
                              step_by_step(slow, periods, 2 * period))
        assert_matches_basis_machine(fast, slow)
        learned = len(fast._table)
        fast.open(instance, 0)
        slow.open(instance, 0, first * instance)
    assert len(fast._table) == learned  # the last rounds learned nothing new


def test_a_new_link_list_starts_a_new_table():
    p = 4
    ring = [(0, 1), (1, 2), (2, 3), (0, 3)]
    machine = DiffusiveConsensus(p, 0, np.ones(1))
    machine.advance([directed_links(ring)], 5)
    learned = len(machine._table)
    machine.advance([directed_links(ring[:2])], 1)
    assert 0 < learned and len(machine._table) == 1


@pytest.fixture
def machines(monkeypatch):
    made = []

    class Recording(DiffusiveConsensus):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(cbdiht, "DiffusiveConsensus", Recording)
    return made


def test_table_stops_growing_with_an_agent_cut_off(machines):
    # agent 5 has no link in any phase: it never joins, the run never meets
    # its tolerance, and the rank key keeps it from making new states
    p = 6
    five = gen_tv_schedule(gen_erdos_renyi(p - 1, 0.6, 4), 3, 5)
    schedule = TvSchedule(base=Graph(p=p, edges=five.base.edges), subgraphs=five.subgraphs)
    problem = generate_problem(30, 12, 2, p, seed=6, ensemble="tight-frame")
    sizes = []
    for budget in (60, 240):
        with cbdiht_settings(checked=False):
            run = run_cbdiht(problem, schedule, stop=StopRule(tol=1e-9, max_iters=budget),
                             keep_iterates=False)
        assert len(run.s_schedule) == budget and run.per_agent_last_iter[-1] == -1
        sizes.append(len(machines[-1]._table))
    assert sizes[0] == sizes[1] <= consensus.TABLE_CAP
    assert sum(run.s_schedule) > 20 * sizes[1]  # nearly every step was a hit


@st.composite
def miss_inputs(draw):
    """A state of dense ranks (0: not joined) over 1 to 70 agents with any
    activations, and one link set: empty, a single link, or random pairs,
    which may leave agents isolated."""
    p = draw(st.integers(1, 70) | st.integers(60, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ranks = rng.integers(0, draw(st.integers(1, 5)), p)
    ranks = np.searchsorted(np.union1d(ranks, 0), ranks)  # dense, 0 kept
    active = rng.random((p, p)) < draw(st.floats(0.0, 1.0))
    pairs = [(u, v) for u in range(p) for v in range(u + 1, p)]
    shape = draw(st.sampled_from(["empty", "single"] + ["random"] * 4))
    if shape == "random" or not pairs:
        density = draw(st.floats(0.0, 1.0))
        links = [e for e in pairs if rng.random() < density] if shape == "random" else []
    else:
        links = [] if shape == "empty" else [pairs[rng.integers(len(pairs))]]
    return ranks, active, directed_links(links)


@settings(max_examples=400, deadline=None)
@given(miss_inputs())
def test_miss_kernel_matches_the_numpy_kernel(case):
    ranks, active, links = case
    p = len(ranks)
    key = ranks.astype(np.int32).tobytes() + np.packbits(
        active, axis=1, bitorder="little").tobytes()
    state = ranks.tolist(), consensus._rows(active)
    assert consensus._key(*state) == key
    got = consensus._entry(key, *state, consensus._phase(links, p))
    want = reference_entry(reference_key(ranks, active), links, p)
    next_key, next_ranks, next_rows, kept, w, joiners, row = got
    want_ranks, want_active = reference_decode(want[0], p)
    got_ranks, got_active = consensus._decode(next_key, p)
    assert np.array_equal(got_ranks, want_ranks) and np.array_equal(got_active, want_active)
    assert consensus._key(next_ranks, next_rows) == next_key
    assert next_rows == tuple(consensus._rows(got_active))
    top = int(ranks.max(initial=0))
    assert np.array_equal(np.arange(top + 1) if kept is None else kept, want[1])
    if want[2] is None:
        assert w is None
    else:
        assert w.tobytes() == np.bincount(*want[2], minlength=p * p).tobytes()
    assert np.array_equal([] if joiners is None else joiners, want[3])
    assert row == tuple(want[4].tolist())
