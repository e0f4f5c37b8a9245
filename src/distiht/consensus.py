"""Doubly stochastic averaging and its initiation-gated, diffusive variant.

The diffusive machine opens each instance at a single agent; INITIATE
messages spread participation along whatever links the schedule offers, and
only links whose both endpoints have exchanged an INITIATE carry values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Optional

import numpy as np

from .graphs import TvSchedule

TABLE_CAP = 4096  # transitions a DiffusiveConsensus memoises; a full table is cleared


def check_doubly_stochastic(w: np.ndarray, tol: float = 1e-12) -> bool:
    ones = np.ones(w.shape[0])
    return (np.all(w >= -tol)
            and np.allclose(w @ ones, ones, atol=tol)
            and np.allclose(ones @ w, ones, atol=tol))


def metropolis_matrix(src: np.ndarray, dst: np.ndarray, p: int):
    """Metropolis-Hastings weights over directed index arrays that list every
    undirected link in both directions; returns (w, degrees).

    w_pq = 1/(1 + max(deg_p, deg_q)) on links, with the leftover mass on the
    diagonal; rows and columns sum to one by construction (Xiao & Boyd 2004).
    """
    deg = np.bincount(src, minlength=p)
    w = np.zeros((p, p))
    w[src, dst] = 1.0 / (1.0 + np.maximum(deg[src], deg[dst]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w, deg


def _directed(links) -> np.ndarray:
    """The (src, dst) index arrays of any iterable of undirected pairs,
    listing every link in both directions."""
    e = np.fromiter(chain.from_iterable(links), dtype=np.intp).reshape(-1, 2)
    return np.concatenate([e, e[:, ::-1]]).T


def metropolis_weights(active_links, p: int) -> np.ndarray:
    """The (p, p) Metropolis-Hastings weights over the given undirected links;
    every nonzero entry is at least 1/(1 + max degree)."""
    return metropolis_matrix(*_directed(active_links), p)[0]


class Links(NamedTuple):
    """One link set as directed index arrays that list every undirected link
    in both directions, plus each agent's neighbour list."""

    src: np.ndarray
    dst: np.ndarray
    nbrs: list


def directed_links(links, p: int) -> Links:
    """Build the directed arrays of one link set; done once per period step.
    Each agent's neighbours are listed in link order."""
    src, dst = _directed(links)
    cut = [0, *np.cumsum(np.bincount(src, minlength=p)).tolist()]
    ordered = dst[np.argsort(src, kind="stable")].tolist()
    return Links(src, dst, [ordered[lo:hi] for lo, hi in zip(cut, cut[1:])])


def _transition(inst: np.ndarray, active: np.ndarray, links: Links) -> tuple:
    """One synchronous step from the instances `inst` (negative: not joined)
    and activations `active` over `links`; mutates nothing.

    Values first move over the links their sender had activated, and agents
    average with same-instance neighbours under Metropolis weights.  Then
    the INITIATE wave runs in agent-index order; an agent that joins from a
    lower-indexed sender forwards in this step.  Returns the next `inst` and
    `active`, the mixing matrix W (None: the identity; an agent that
    averages nothing has row e_q), the joiners, and each agent's value sends
    and INITIATE fan-out.
    """
    src, dst, nbrs = links
    p = len(inst)
    live = active[src, dst]
    # the far end of a live same-instance link is active too, since
    # instances only grow and an INITIATE activates both ends at once
    avg = live & (inst[src] == inst[dst])
    w = metropolis_matrix(src[avg], dst[avg], p)[0] if avg.any() else None
    # every joined agent ships its row on its live links, whether or not
    # the far end still listens to its instance
    sends = np.bincount(src[live], minlength=p)

    start, inst, active = inst, inst.copy(), active.copy()
    fanout = np.zeros(p, dtype=int)
    pending = np.bincount(src[~live & (inst[src] >= 0)], minlength=p).tolist()
    for a in range(p):
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
                pending[q] = True
            elif ka == inst[q]:
                active[q, a] = True  # pure link activation
            # an already-fresher receiver ignores the message
    return inst, active, w, np.flatnonzero(inst != start), sends, fanout


def _key(ranks: np.ndarray, active: np.ndarray) -> bytes:
    return ranks.astype(np.int32).tobytes() + np.packbits(active).tobytes()


def _decode(key: bytes, p: int) -> tuple:
    bits = np.unpackbits(np.frombuffer(key, np.uint8, offset=4 * p), count=p * p)
    return np.frombuffer(key, np.int32, count=p), bits.reshape(p, p).astype(bool)


def _entry(key: bytes, links: Links) -> tuple:
    """The table entry of one step over `links` from the state `key`: the
    next key, the rank each next rank had, W's flat nonzeros off the joiners'
    rows (None for the identity), the joiners and the cost row (sends,
    fan-out, senders, initiators)."""
    p = len(links.nbrs)
    ranks, active = _decode(key, p)
    # rank 0 is "not joined", which _transition reads as a negative instance
    inst, active, w, joiners, sends, fanout = _transition(ranks - 1, active, links)
    if w is not None:  # the apply overwrites the joiners' rows, so none is stored
        w[joiners] = 0.0
    after = inst + 1
    kept = np.flatnonzero(np.bincount(np.append(after, 0)))  # next rank -> rank
    return (_key(np.searchsorted(kept, after), active), kept,
            None if w is None else (np.flatnonzero(w), w[w != 0]), joiners,
            np.array([sends.sum(), fanout.sum(), np.count_nonzero(sends),
                      np.count_nonzero(fanout)]))


class DiffusiveConsensus:
    """Lockstep state machine for initiation-gated averaging over instances.

    Averaging is linear, so the state is mixing coefficients, not vectors:
    agent q's row `coef[q]` weighs the contributions of the instance
    `inst[q]` it joined (-1: none yet), which the caller keeps.  Only
    instance 0's, the background with the initiator's row replaced, are kept,
    as `start`, so `values` is `coef @ start`.  `active[a, q]` says that a
    activated its link to q.  An instance opens at one agent and spreads by
    INITIATE messages along the links each step offers; an agent adopts any
    fresher instance that reaches it, starting from row e_q, and drops its
    old links.  Agents that have not joined, or have no same-instance active
    link this step, hold their row bit-unchanged.  Instance numbers only
    grow; the constructor's instance 0 may be reopened before any step.

    A step (`_transition`) never reads the values and compares instances
    only for order and equality, so `advance` replays steps from a table
    keyed on the period phase, `active` and each agent's instance rank (not
    joined lowest).
    """

    def __init__(self, p: int, initiator: int, initiator_value: np.ndarray,
                 background: Optional[np.ndarray] = None):
        self.p = p
        value = np.atleast_1d(np.asarray(initiator_value, dtype=float))
        self.start = np.zeros((p, value.shape[0])) if background is None \
            else np.array(background, dtype=float)
        self.start[initiator] = value
        self.coef = np.eye(p)
        self.inst = np.full(p, -1, dtype=int)
        self.active = np.zeros((p, p), dtype=bool)
        self.initiated_at: list = [None] * p  # step from which each takes part
        self.step_count = 0
        self._periods, self._table = None, {}  # see advance
        self.open(0, initiator)

    @property
    def values(self) -> np.ndarray:
        """`coef @ start`: instance 0's values, an unjoined agent's `start` row."""
        return self.coef @ self.start

    def open(self, instance: int, agent: int) -> None:
        """Start `instance` at `agent`, which restarts from coefficient row
        e_agent over the instance's contributions and re-activates its links
        from scratch."""
        self.coef[agent] = 0.0
        self.coef[agent, agent] = 1.0
        self.active[agent] = False
        self.inst[agent] = instance
        self.initiated_at[agent] = self.step_count

    def step(self, links) -> np.ndarray:
        """`advance([links], 1)` over `links`, a `Links` or a list of pairs:
        one step and its (sends, fan-out, senders, initiators)."""
        if not isinstance(links, Links):
            links = directed_links(links, self.p)
        return self.advance([links], 1)

    def advance(self, periods: list, steps: int) -> np.ndarray:
        """Run `steps` steps, step t over `periods[t % len(periods)]` (a list
        of `Links`); return the summed (sends, fan-out, senders, initiators).

        The first visit to a (state, phase) runs `_transition` on the state
        and stores what it did; every visit then applies it: `coef = W @ coef`
        (W None: the identity), and each joiner restarts from row e_q and
        takes part from the next step.  The state is hashed on entry and
        written back on exit, so `open` calls in between are fine.
        """
        total, steps = np.zeros(4, dtype=np.int64), max(steps, 0)
        if periods is not self._periods:  # a new list of links starts a new table
            self._periods, self._table = periods, {}
        p, t0, coef = self.p, self.step_count, self.coef
        u = np.array(sorted(set(self.inst.tolist()) | {-1}))  # rank -> instance
        key = _key(np.searchsorted(u, self.inst), self.active)
        for t in range(t0, t0 + steps):
            phase = t % len(periods)
            entry = self._table.get((key, phase))
            if entry is None:
                if len(self._table) >= TABLE_CAP:
                    self._table = {}
                entry = self._table[key, phase] = _entry(key, periods[phase])
            key, kept, mix, joiners, row = entry
            u = u[kept]
            if mix is not None:  # W's nonzeros scattered into a zeroed (p, p)
                coef = np.bincount(*mix, minlength=p * p).reshape(p, p) @ coef
            if len(joiners):
                coef[joiners] = 0.0
                coef[joiners, joiners] = 1.0
                for q in joiners.tolist():
                    self.initiated_at[q] = t + 1
            total += row
        ranks, self.active = _decode(key, p)
        self.inst, self.coef, self.step_count = u[ranks], coef, t0 + steps
        return total


def run_diffusive_consensus(schedule: TvSchedule, per_agent_values: np.ndarray,
                            steps: int):
    """Run one diffusive instance for `steps` schedule steps from agent 0.

    All agents' initial vectors are fixed up front; agents that have not
    joined hold theirs untouched.  Returns (values, initiated_at).
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    machine = DiffusiveConsensus(schedule.p, 0, per_agent_values[0],
                                 background=per_agent_values)
    machine.advance([directed_links(links, schedule.p) for links in schedule.subgraphs],
                    steps)
    return machine.values, machine.initiated_at


@dataclass
class BoundConstants:
    gamma: float
    big_gamma: float
    d_bar: int


def bound_constants(eta: float, p: int, c: int) -> BoundConstants:
    """Contraction rate and prefactor of the single-initiator deviation bound.

    d_bar = 2(p-1)c, gamma = (1 - eta^d_bar)^(1/d_bar) and
    big_gamma = 2(1 + eta^(-d_bar))/(1 - eta^d_bar).  For very small eta the
    prefactor overflows to inf, which keeps the bound valid but vacuous.
    """
    if not (0.0 < eta < 1.0):
        raise ValueError("eta must lie strictly in (0, 1)")
    if p < 2 or c < 1:
        raise ValueError("need p >= 2 and c >= 1")
    d_bar = 2 * (p - 1) * c
    eta_d = math.exp(d_bar * math.log(eta))  # may underflow to 0.0
    gamma = math.exp(math.log1p(-eta_d) / d_bar)
    try:
        inv = math.exp(-d_bar * math.log(eta))
        big_gamma = 2.0 * (1.0 + inv) / (1.0 - eta_d)
    except OverflowError:
        big_gamma = math.inf
    return BoundConstants(gamma=gamma, big_gamma=big_gamma, d_bar=d_bar)


def schedule_eta(schedule: TvSchedule) -> float:
    """Uniform weight floor valid for every step: 1/(1 + base max degree)."""
    return 1.0 / (1.0 + schedule.base.max_degree())

