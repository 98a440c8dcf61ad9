"""Deterministic lockstep message-passing simulation of the agent network.

Each inner iteration has three phases with a global barrier between them:

  1. every agent runs its x-update, then broadcasts xbar[i] and the
     consensus dual mu_i^(j) to each neighbor j;
  2. every agent runs its w-update from the received blocks, then sends
     each neighbor j its fresh copy w_i^(j);
  3. every agent runs its dual updates locally.

Messages are the only cross-agent channel; an agent can only address its
neighbors. Each message carries a read-only array, and delivery writes it
into the receiver's slot row of the sender. A delivery must write every
(receiver, neighbor, kind) slot its phase feeds, so no agent ever updates
from data that never arrived. Message delivery order is sorted by
(sender, receiver), so a run is bit-reproducible.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .agent import AgentState
from .exceptions import ProtocolViolation
from .topology import NeighborTables

PHASE_XBAR = 1
PHASE_COPY = 2
PHASE_DUAL = 3

KIND_XBAR = "xbar"
KIND_MU = "dual_mu"
KIND_COPY = "copy_of_you"

# the slot kinds each delivering phase writes, for every (receiver, neighbor)
PHASE_KINDS = {PHASE_XBAR: (KIND_XBAR, KIND_MU), PHASE_COPY: (KIND_COPY,)}
SLOT_ARRAYS = {KIND_XBAR: "nbr_xbar", KIND_MU: "nbr_mu", KIND_COPY: "nbr_copy_of_me"}


@dataclass(frozen=True, eq=False)  # messages compare by identity, not payload
class Message:
    sender: int
    receiver: int
    round: int
    phase: int
    kind: str
    payload: np.ndarray  # read-only


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only copy; rows of it are read-only views."""
    out = a.copy()
    out.flags.writeable = False
    return out


class Network:
    """A set of agents plus the sole communication channel between them."""

    def __init__(self, agents: dict[int, AgentState], tables: NeighborTables,
                 record_trace: bool = False):
        self.agents = agents
        self.tables = tables
        self.record_trace = record_trace
        self.trace: list[Message] = []
        self.round = 0
        self.num_slots = sum(len(a.neighbors) for a in agents.values())

    def _deliver(self, messages: list[Message]) -> list[Message]:
        if not messages:
            if self.num_slots:
                raise ProtocolViolation("a delivering phase sent no messages")
            return messages
        messages.sort(key=lambda m: (m.sender, m.receiver, m.kind))
        kinds = PHASE_KINDS.get(messages[0].phase, ())
        written = set()
        for m in messages:
            if m.receiver not in self.tables.neighbors[m.sender]:
                raise ProtocolViolation(
                    f"agent {m.sender} sent to non-neighbor {m.receiver}"
                )
            if m.kind not in kinds:
                raise ProtocolViolation(
                    f"unknown message kind {m.kind!r} in phase {m.phase}")
            dst = self.agents[m.receiver]
            slots = getattr(dst, SLOT_ARRAYS[m.kind])
            slots[dst.neighbors.index(m.sender)] = m.payload
            written.add((m.receiver, m.sender, m.kind))
        if len(written) < self.num_slots * len(kinds):
            missing = [(i, j, k) for i, a in self.agents.items() for j in a.neighbors
                       for k in kinds if (i, j, k) not in written]
            raise ProtocolViolation(
                f"{len(missing)} slots never written, the first (receiver, "
                f"neighbor, kind) being {missing[0]}")
        if self.record_trace:
            self.trace.extend(messages)
        return messages

    def run_phase(self, phase: int, prox_tol: float = 1e-9) -> list[Message]:
        """Run one phase at every agent and deliver its messages."""
        ids = sorted(self.agents)
        if phase == PHASE_XBAR:
            for i in ids:
                self.agents[i].primal_update_x(tol=prox_tol)
            out = []
            for i in ids:
                a = self.agents[i]
                xbar, mu = _frozen(a.x_bar), _frozen(a.mu)
                for s, j in enumerate(a.neighbors):
                    out.append(Message(i, j, self.round, phase, KIND_XBAR, xbar))
                    out.append(Message(i, j, self.round, phase, KIND_MU, mu[s]))
            return self._deliver(out)
        if phase == PHASE_COPY:
            for i in ids:
                self.agents[i].primal_update_w()
            out = []
            for i in ids:
                a = self.agents[i]
                w = _frozen(a.w)
                for s, j in enumerate(a.neighbors):
                    out.append(Message(i, j, self.round, phase, KIND_COPY, w[s]))
            return self._deliver(out)
        if phase == PHASE_DUAL:
            for i in ids:
                self.agents[i].dual_update()
            return []
        raise ValueError(f"unknown phase {phase}")

    def run_iteration(self, prox_tol: float = 1e-9) -> None:
        for phase in (PHASE_XBAR, PHASE_COPY, PHASE_DUAL):
            self.run_phase(phase, prox_tol=prox_tol)
        self.round += 1


def message_stats(trace: list[Message]) -> dict[int, dict]:
    """Per-agent outgoing message and float counts, per round.

    Costs depend only on the agent's neighborhood and block sizes, never on
    the network size.
    """
    stats: dict[int, dict] = {}
    for m in trace:
        per_agent = stats.setdefault(m.sender, {})
        per_round = per_agent.setdefault(m.round, {"messages": 0, "floats": 0})
        per_round["messages"] += 1
        per_round["floats"] += len(m.payload)
    return stats


def dump_trace_csv(trace: list[Message], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "phase", "sender", "receiver", "kind",
                        "payload_norm"])
        for m in trace:
            writer.writerow([m.round, m.phase, m.sender, m.receiver, m.kind,
                             float(np.linalg.norm(m.payload))])
