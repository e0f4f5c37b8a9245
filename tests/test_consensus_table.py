"""The diffusive machine's transition table against plain `step` calls.

`DiffusiveConsensus.advance` replays each step it has seen from a table keyed
on the period phase, the agents' instance ranks and the activation matrix.
A second machine driven one `step` at a time is its oracle: both must agree
bit for bit on the coefficients, instances, activations, join steps and the
summed traffic, with `open` and direct `step` calls interleaved.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distiht import cbdiht, consensus
from distiht.cbdiht import run_cbdiht
from distiht.consensus import DiffusiveConsensus, directed_links
from distiht.diht import StopRule
from distiht.graphs import Graph, TvSchedule, gen_erdos_renyi, gen_tv_schedule
from distiht.model import generate_problem


def random_periods(rng, p: int, period: int, density: float) -> list:
    # any link set, so an agent may be cut off for a phase or for good
    pairs = [(u, v) for u in range(p) for v in range(u + 1, p)]
    return [directed_links([e for e in pairs if rng.random() < density], p)
            for _ in range(period)]


def step_by_step(machine: DiffusiveConsensus, periods: list, steps: int) -> np.ndarray:
    total = np.zeros(4, dtype=np.int64)
    for _ in range(steps):
        sends, fanout = machine.step(periods[machine.step_count % len(periods)])
        total += (sends.sum(), fanout.sum(), np.count_nonzero(sends),
                  np.count_nonzero(fanout))
    return total


def assert_same_machine(fast: DiffusiveConsensus, slow: DiffusiveConsensus) -> None:
    assert fast.coef.tobytes() == slow.coef.tobytes()
    assert np.array_equal(fast.inst, slow.inst)
    assert np.array_equal(fast.active, slow.active)
    assert fast.initiated_at == slow.initiated_at
    assert fast.step_count == slow.step_count
    assert fast.bases.keys() == slow.bases.keys()
    assert fast.values.tobytes() == slow.values.tobytes()


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 12), st.integers(1, 4), st.floats(0.1, 1.0),
       st.integers(0, 10 ** 6), st.integers(1, 3),
       st.lists(st.tuples(st.sampled_from(["advance", "advance", "step", "open"]),
                          st.integers(0, 12)), min_size=1, max_size=14),
       st.sampled_from([consensus.TABLE_CAP, 2]))
def test_table_matches_step_by_step(p, period, density, seed, dim, actions, cap):
    rng = np.random.default_rng(seed)
    periods = random_periods(rng, p, period, density)
    first = rng.standard_normal((p, dim))
    fast = DiffusiveConsensus(p, 0, first[0], background=first)
    slow = DiffusiveConsensus(p, 0, first[0], background=first)
    opened = 0
    for action, n in actions:
        if action == "open":  # a fresher instance at any agent
            opened += 1
            contributions = rng.standard_normal((p, dim))
            fast.open(opened, n % p, contributions)
            slow.open(opened, n % p, contributions)
        elif action == "step":
            links = periods[fast.step_count % period]
            got, want = fast.step(links), slow.step(links)
            assert all(np.array_equal(u, v) for u, v in zip(got, want))
        else:
            with mock.patch.object(consensus, "TABLE_CAP", cap):  # 2 clears it often
                got = fast.advance(periods, n)
            assert np.array_equal(got, step_by_step(slow, periods, n))
            assert len(fast._table) <= cap
        assert_same_machine(fast, slow)


def test_hits_replay_the_learned_step():
    # a static complete graph settles into one state, so nearly every step
    # after the first few is a table hit
    p = 6
    periods = [directed_links([(u, v) for u in range(p) for v in range(u + 1, p)], p)]
    first = np.random.default_rng(3).standard_normal((p, 2))
    fast = DiffusiveConsensus(p, 0, first[0], background=first)
    slow = DiffusiveConsensus(p, 0, first[0], background=first)
    assert np.array_equal(fast.advance(periods, 40), step_by_step(slow, periods, 40))
    assert_same_machine(fast, slow)
    assert len(fast._table) <= 3


@pytest.mark.parametrize("seed", range(4))
def test_reopening_replays_the_joins(seed):
    # as in CB-DIHT, agent 0 opens a fresh instance at the same phase each
    # round, so the INITIATE wave's joins are table hits from round two on
    p, period = 7, 2
    periods = random_periods(np.random.default_rng(seed), p, period, 0.5)
    first = np.random.default_rng(seed).standard_normal((p, 2))
    fast = DiffusiveConsensus(p, 0, first[0], background=first)
    slow = DiffusiveConsensus(p, 0, first[0], background=first)
    for instance in range(1, 9):
        assert np.array_equal(fast.advance(periods, 2 * period),
                              step_by_step(slow, periods, 2 * period))
        assert_same_machine(fast, slow)
        learned = len(fast._table)
        fast.open(instance, 0, first * instance)
        slow.open(instance, 0, first * instance)
    assert len(fast._table) == learned  # the last rounds learned nothing new


def test_a_new_link_list_starts_a_new_table():
    p = 4
    ring = [(0, 1), (1, 2), (2, 3), (0, 3)]
    machine = DiffusiveConsensus(p, 0, np.ones(1))
    machine.advance([directed_links(ring, p)], 5)
    learned = len(machine._table)
    machine.advance([directed_links(ring[:2], p)], 1)
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
        run = run_cbdiht(problem, schedule, stop=StopRule(tol=1e-9, max_iters=budget),
                         keep_iterates=False, validate_schedule=False)
        assert len(run.s_schedule) == budget and run.per_agent_last_iter[-1] == -1
        sizes.append(len(machines[-1]._table))
    assert sizes[0] == sizes[1] <= consensus.TABLE_CAP
    assert sum(run.s_schedule) > 20 * sizes[1]  # nearly every step was a hit
