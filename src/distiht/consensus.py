"""Doubly stochastic averaging and its initiation-gated, diffusive variant.

The diffusive machine starts with a single participating agent; INITIATE
messages spread participation along whatever links the schedule offers, and
only links whose both endpoints have exchanged an INITIATE carry values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional

import numpy as np

from .graphs import TvSchedule


@dataclass
class WeightMatrix:
    w: np.ndarray
    eta: float  # constructive lower bound on the nonzero entries


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


def metropolis_weights(active_links, p: int) -> WeightMatrix:
    """Metropolis-Hastings weights over the given undirected links; every
    nonzero entry is at least eta = 1/(1 + max degree)."""
    e = np.fromiter(chain.from_iterable(active_links), dtype=np.intp).reshape(-1, 2)
    w, deg = metropolis_matrix(*np.concatenate([e, e[:, ::-1]]).T, p)
    return WeightMatrix(w=w, eta=float(1.0 / (1.0 + deg.max(initial=0))))


def consensus_step(values: np.ndarray, w: WeightMatrix) -> np.ndarray:
    """One synchronous averaging round: row p becomes sum_q w_pq values_q."""
    values = np.asarray(values, dtype=float)
    if values.shape[0] != w.w.shape[0]:
        raise ValueError("values and weight matrix sizes differ")
    return w.w @ values


@dataclass
class StepStats:
    vector_sends: int = 0  # directed value transmissions this step
    initiate_sends: int = 0  # directed INITIATE transmissions this step
    vector_broadcasters: int = 0  # agents that sent at least one value
    initiate_broadcasters: int = 0  # agents that sent at least one INITIATE


class DiffusiveConsensus:
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


def run_diffusive_consensus(schedule: TvSchedule, initiator_payload,
                            per_agent_values: np.ndarray, steps: int,
                            start_time: int = 0):
    """Run one diffusive instance for `steps` schedule steps from agent 0.

    All agents' initial vectors are fixed up front; uninitiated agents hold
    theirs untouched.  Returns (values, initiated_at, totals) where totals
    aggregates the per-step message statistics.  `initiator_payload` is the
    content of the INITIATE message; it is opaque here and only matters to
    callers that price those messages.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    per_agent_values = np.asarray(per_agent_values, dtype=float)
    machine = DiffusiveConsensus(
        p=schedule.p, initiator=0, initiator_value=per_agent_values[0],
        background=per_agent_values)
    totals = StepStats()
    for t in range(steps):
        st = machine.step(schedule.edges_at(start_time + t))
        totals.vector_sends += st.vector_sends
        totals.initiate_sends += st.initiate_sends
        totals.vector_broadcasters += st.vector_broadcasters
        totals.initiate_broadcasters += st.initiate_broadcasters
    return machine.values, machine.initiated_at, totals


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


def write_activation_csv(initiated_at, path: str) -> None:
    """CSV of (agent, initiated_at_step); blank step when never initiated."""
    with open(path, "w") as fh:
        fh.write("agent,initiated_at_step\n")
        for agent, step in enumerate(initiated_at):
            fh.write(f"{agent},{'' if step is None else step}\n")
