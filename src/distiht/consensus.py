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
    in both directions."""

    src: np.ndarray
    dst: np.ndarray


def directed_links(links) -> Links:
    """Build the directed arrays of one link set; done once per period step."""
    return Links(*_directed(links))


def _rows(bits: np.ndarray) -> list:
    """Each row of a (p, p) boolean matrix as an int bitmask, bit q for column q."""
    p = len(bits)
    words = np.zeros((p, -(-p // 64)), dtype="<u8")
    words.view(np.uint8)[:, :(p + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    rows, *rest = words.T.tolist()
    for shift, word in enumerate(rest, 1):
        rows = [r | w << 64 * shift for r, w in zip(rows, word)]
    return rows


def _phase(links: Links, p: int) -> tuple:
    """What a table miss reads of one link set: its directed index arrays,
    each link's index into a flat (p, p), each agent's link count, and each
    agent's neighbours as an int bitmask."""
    src, dst = links
    adjacency = np.zeros((p, p), dtype=bool)
    adjacency[src, dst] = True
    return src, dst, src * p + dst, np.bincount(src, minlength=p), _rows(adjacency)


def _key(ranks, rows) -> bytes:
    """A state as bytes: the ranks as int32, then each activation row in
    whole little-endian bytes, as `np.packbits(bitorder="little")` lays it out."""
    width = (len(rows) + 7) // 8
    return np.array(ranks, dtype=np.int32).tobytes() + b"".join(
        [r.to_bytes(width, "little") for r in rows])


def _decode(key: bytes, p: int) -> tuple:
    """A key's ranks and activation matrix as arrays."""
    bits = np.frombuffer(key, np.uint8, offset=4 * p).reshape(p, -1)
    return (np.frombuffer(key, np.int32, count=p),
            np.unpackbits(bits, axis=1, count=p, bitorder="little").view(bool))


def _entry(key: bytes, ranks, rows, phase: tuple) -> tuple:
    """The table entry of one step over `phase` (see `_phase`) from the state
    `key`: each agent's rank `ranks` (0: not joined) and activation row `rows`
    (bit q of rows[a]: a activated its link to q).  Values first move over the
    links their sender had activated, and agents average with same-instance
    neighbours under Metropolis weights.  Then the INITIATE wave runs in agent
    order; an agent that joins from a lower-indexed sender forwards in this
    step.  Returns the next key, ranks and rows, the rank each next rank had
    (None: all kept), the mixing matrix W with the joiners' rows zeroed (None:
    the identity; an agent that averages nothing has row e_q), the joiners
    (None: none) and the cost row (sends, fan-out, senders, initiators)."""
    src, dst, at, degree, nbrs = phase
    p = len(ranks)
    rank, active = _decode(key, p)
    live = active.reshape(-1)[at]
    # the far end of a live same-instance link is active too, since ranks
    # only grow and an INITIATE activates both ends at once
    avg = live & (rank[src] == rank[dst])
    # every joined agent ships its row on its live links, whether or not
    # the far end still listens to its instance
    sends = np.bincount(src[live], minlength=p)
    waiting = (sends < degree) & (rank > 0)  # joined, with a link not yet activated
    pending = int.from_bytes(np.packbits(waiting, bitorder="little").tobytes(), "little")

    ranks, rows = list(ranks), list(rows)
    joined = fanout = initiators = 0
    while pending:  # lowest index first
        low = pending & -pending
        pending ^= low
        a = low.bit_length() - 1
        fresh = nbrs[a] & ~rows[a]
        if not fresh:
            continue
        fanout += fresh.bit_count()
        initiators += 1
        rows[a] |= fresh
        ka = ranks[a]
        while fresh:
            bit = fresh & -fresh
            fresh ^= bit
            q = bit.bit_length() - 1
            if ka > ranks[q]:
                ranks[q], rows[q] = ka, low
                joined |= bit
                pending |= bit & -(low << 1)  # forwards now if it comes after a
            elif ka == ranks[q]:
                rows[q] |= low  # pure link activation
            # an already-fresher receiver ignores the message

    joiners = kept = w = None
    if joined:
        joiners = np.flatnonzero(np.unpackbits(np.frombuffer(
            joined.to_bytes((p + 7) // 8, "little"), np.uint8), count=p, bitorder="little"))
        present = sorted({0, *ranks})
        if len(present) <= rank.max():  # some rank is gone: relabel densely
            kept, relabel = np.array(present), {k: i for i, k in enumerate(present)}
            ranks = [relabel[k] for k in ranks]
    if avg.any():
        w = metropolis_matrix(src[avg], dst[avg], p)[0]
        if joiners is not None:  # the apply overwrites their rows
            w[joiners] = 0.0
    return (_key(ranks, rows), tuple(ranks), tuple(rows), kept, w, joiners,
            (int(np.count_nonzero(live)), fanout, int(np.count_nonzero(sends)), initiators))


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

    A step (`_entry`) never reads the values and compares instances only
    for order and equality, so `advance` replays steps from a table keyed on
    the period phase, `active` and each agent's instance rank (not joined
    lowest).
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
        self._periods, self._table, self._phases = None, {}, []  # see advance
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
            links = directed_links(links)
        return self.advance([links], 1)

    def advance(self, periods: list, steps: int) -> np.ndarray:
        """Run `steps` steps, step t over `periods[t % len(periods)]` (a list
        of `Links`); return the summed (sends, fan-out, senders, initiators).

        The first visit to a (state, phase) stores what the step does
        (`_entry`, on the state as Python ints); every visit then applies it:
        `coef = W @ coef` (W None: the identity), and each joiner restarts
        from row e_q and takes part from the next step.  The state is hashed
        on entry and written back on exit, so `open` calls in between are fine.
        """
        steps, sends, fanout, senders, initiators = max(steps, 0), 0, 0, 0, 0
        if periods is not self._periods:  # a new list of links starts a new table
            self._periods, self._table = periods, {}
            self._phases = [_phase(links, self.p) for links in periods]
        p, t0, coef, table = self.p, self.step_count, self.coef, self._table
        u = np.array(sorted(set(self.inst.tolist()) | {-1}))  # rank -> instance
        rank = np.searchsorted(u, self.inst).astype(np.int32)
        key = rank.tobytes() + np.packbits(self.active, axis=1, bitorder="little").tobytes()
        ranks = rows = None
        for t in range(t0, t0 + steps):
            phase = t % len(periods)
            entry = table.get((key, phase))
            if entry is None:
                if len(table) >= TABLE_CAP:
                    table = self._table = {}
                if rows is None:  # decoded once, then carried by the entries
                    ranks, rows = rank.tolist(), _rows(self.active)
                entry = table[key, phase] = _entry(key, ranks, rows, self._phases[phase])
            key, ranks, rows, kept, w, joiners, (s, f, n, i) = entry
            if kept is not None:
                u = u[kept]
            if w is not None:
                coef = w.dot(coef)
            if joiners is not None:
                coef[joiners] = 0.0
                coef[joiners, joiners] = 1.0
                for q in joiners.tolist():
                    self.initiated_at[q] = t + 1
            sends, fanout, senders, initiators = (sends + s, fanout + f, senders + n,
                                                  initiators + i)
        rank, self.active = _decode(key, p)
        self.inst, self.coef, self.step_count = u[rank], coef, t0 + steps
        return np.array([sends, fanout, senders, initiators], dtype=np.int64)


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
    machine.advance([directed_links(links) for links in schedule.subgraphs],
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

