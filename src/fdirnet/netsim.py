"""Deterministic lockstep message-passing simulation of the agent network.

Each inner iteration has three phases with a global barrier between them:

  1. every agent runs its x-update, then broadcasts xbar[i] and the
     consensus dual mu_i^(j) to each neighbor j;
  2. every agent runs its w-update from the received blocks, then sends
     each neighbor j its fresh copy w_i^(j);
  3. every agent runs its dual updates locally.

Sends are the only cross-agent channel. Per kind, every agent hands over
one send block with a row per neighbor, in its slot order. The routing is
fixed by the neighbor tables: ``Network.route`` maps each receiver slot
row ("i's slot for j", all agents' slot rows in id order) to the sender
row that feeds it ("j's slot for i"), so no agent can reach a
non-neighbor, and delivery is one gather per kind followed by one slice
assignment into each receiver's slot array. A phase that leaves out a
kind, sends an unknown one or hands over a block without exactly one row
per neighbor is a protocol violation, so no agent ever updates from data
that never arrived. ``Message`` objects are built, and returned by
``run_phase``, only when the trace is recorded.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .agent import AgentState
from .exceptions import ProtocolViolation

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


class Network:
    """A set of agents plus the sole communication channel between them."""

    def __init__(self, agents: list[AgentState], record_trace: bool = False):
        if any(a.i != i for i, a in enumerate(agents)):
            raise ValueError("agents must be listed by id, from 0")
        self.ordered = agents
        self.agents = {a.i: a for a in agents}
        self.record_trace = record_trace
        self.trace: list[Message] = []
        self.round = 0
        # slot rows of all agents in id order; route[q] is the sender row
        # feeding receiver row q: "i's slot for j" <- "j's slot for i"
        self.bounds = np.cumsum([0] + [len(a.neighbors) for a in agents]).tolist()
        self.route = np.array([self.bounds[j] + agents[j].neighbors.index(a.i)
                               for a in agents for j in a.neighbors], dtype=np.intp)

    def _deliver(self, phase: int, sends: dict[str, list[np.ndarray]]) -> list[Message]:
        """Route each kind's send blocks, one per agent in id order."""
        kinds = sorted(PHASE_KINDS.get(phase, ()))
        if sorted(sends) != kinds:
            raise ProtocolViolation(f"phase {phase} sent kinds {sorted(sends)}, not {kinds}")
        agents = self.ordered
        sent = {}
        for kind, blocks in sends.items():
            slots = [getattr(a, SLOT_ARRAYS[kind]) for a in agents]
            if len(blocks) != len(slots) or any(
                    b.shape != s.shape for b, s in zip(blocks, slots)):
                raise ProtocolViolation(
                    f"phase {phase} {kind!r} send blocks need one row per neighbor")
            sent[kind] = np.concatenate(blocks)
            rows = sent[kind][self.route]
            for s, lo, hi in zip(slots, self.bounds, self.bounds[1:]):
                s[:] = rows[lo:hi]
        if not self.record_trace:
            return []
        for payload in sent.values():
            payload.flags.writeable = False  # so are the rows the messages carry
        out = [Message(a.i, j, self.round, phase, kind, sent[kind][q])
               for a, lo in zip(agents, self.bounds)
               for q, j in enumerate(a.neighbors, lo) for kind in kinds]
        self.trace.extend(out)
        return out

    def run_phase(self, phase: int) -> list[Message]:
        """Run one phase at every agent and deliver its sends."""
        agents = self.ordered
        if phase == PHASE_XBAR:
            for a in agents:
                a.primal_update_x()
            return self._deliver(phase, {
                KIND_XBAR: [a.x_bar[None].repeat(len(a.neighbors), 0) for a in agents],
                KIND_MU: [a.mu for a in agents]})
        if phase == PHASE_COPY:
            for a in agents:
                a.primal_update_w()
            return self._deliver(phase, {KIND_COPY: [a.w for a in agents]})
        if phase == PHASE_DUAL:
            for a in agents:
                a.dual_update()
            return []
        raise ValueError(f"unknown phase {phase}")

    def run_iteration(self) -> None:
        for phase in (PHASE_XBAR, PHASE_COPY, PHASE_DUAL):
            self.run_phase(phase)
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
