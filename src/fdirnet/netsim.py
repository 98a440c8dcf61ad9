"""Deterministic lockstep message-passing simulation of the agent network.

Each inner iteration has three phases with a global barrier between them:

  1. every agent runs its x-update, then broadcasts xbar[i] and the
     consensus dual mu_i^(j) to each neighbor j;
  2. every agent runs its w-update from the received blocks, then sends
     each neighbor j its fresh copy w_i^(j);
  3. every agent runs its dual updates locally.

Every agent lives in its own segment of the network's one arena of floats;
the network builds its agents there from the ``topology.Tables`` that
``build_tables`` packs once per network (neighbors, incident edges, rows,
the slot key), shared by all, and each linearization is written into the
arena from outside, at the field starts ``start``. Sends are the only
cross-agent channel: index maps into the arena, built once from the
tables and, by field name, the agent ``layout``. ``route`` maps each slot
row ("i's slot for j", in id order) to the row that feeds it ("j's slot
for i"); finding it checks the tables (ascending, of other agents,
symmetric), so no agent can reach a non-neighbor.
``delivery`` pairs, per delivering phase, every entry of its receive slots
(``SLOT_ARRAYS``) with the sender's entry (``SENT_FIELDS``) that feeds it:
one take and one write back cover every slot. The round statistics read
every xbar, c and d through index maps too. ``Message`` objects are built,
and returned by ``run_phase``, only when the trace is recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .agent import AgentState, layout
from .exceptions import ProtocolViolation
from .topology import Tables, index_ranges

PHASE_XBAR = 1
PHASE_COPY = 2
PHASE_DUAL = 3

KIND_XBAR = "xbar"
KIND_MU = "dual_mu"
KIND_COPY = "copy_of_you"

# the AgentState method each phase runs at every agent
PHASE_UPDATES = {PHASE_XBAR: "primal_update_x", PHASE_COPY: "primal_update_w",
                 PHASE_DUAL: "dual_update"}
# the slot kinds each delivering phase writes, for every (receiver, neighbor)
PHASE_KINDS = {PHASE_XBAR: (KIND_XBAR, KIND_MU), PHASE_COPY: (KIND_COPY,)}
SLOT_ARRAYS = {KIND_XBAR: "nbr_xbar", KIND_MU: "nbr_mu", KIND_COPY: "nbr_copy_of_me"}
SENT_FIELDS = {KIND_XBAR: "x_bar", KIND_MU: "mu", KIND_COPY: "w"}  # the sender's field per kind


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

    def __init__(self, tables: Tables, d: int, rho: float, record_trace: bool = False):
        """An agent per entry of ``tables``, with blocks of d and the ADMM
        penalty rho; ``fill`` is left to whoever writes the linearizations."""
        n = len(tables.nbr_ptr) - 1
        k, m = np.diff(tables.nbr_ptr), np.diff(tables.row_ptr)
        # slot row q: agent i's slot for neighbor j
        i, j, key = tables.slot_agent, tables.nbrs, tables.key
        self.route = np.searchsorted(key, j * n + i).clip(max=len(key) - 1)
        if not (np.all((j >= 0) & (j < n) & (j != i)) and np.all(key[1:] > key[:-1])
                and np.array_equal(key[self.route], j * n + i)):
            raise ProtocolViolation("neighbor tables must be ascending, of other agents "
                                    "and symmetric")
        at, size = layout(m, k, d)
        seg = np.cumsum(size) - size
        # where each field and run of every agent starts in the arena
        self.start = start = {name: seg + lo for name, (lo, _, _) in at.items()}
        self.arena = np.zeros(int(size.sum()))
        self.d = d
        self.tables = tables
        self.capped: list[int] = []  # see AgentState
        self.fill = None  # how each linearization is written (solver.build_network)
        self.record_trace = record_trace
        self.trace: list[Message] = []
        self.round = 0
        row = d * index_ranges(0 * k, k)  # slot row q's offset in a (k, d) field of agent i

        def slot_rows(name):
            return start[name][i] + row

        self.delivery = {}
        for phase, kinds in PHASE_KINDS.items():
            # a (d,) field goes whole to every neighbor, a (k, d) field as the
            # row of the sender's slot for the receiver
            src = [start[f][j] if len(at[f][2]) == 1 else slot_rows(f)[self.route]
                   for f in map(SENT_FIELDS.get, kinds)]
            dst = [slot_rows(SLOT_ARRAYS[kind]) for kind in kinds]
            self.delivery[phase] = (index_ranges(np.concatenate(dst), d),
                                    index_ranges(np.concatenate(src), d))

        self.ordered = [AgentState.on_segment(a, rho, tables, self.capped, mkd,
                                              self.arena[lo:lo + size_a])
                        for a, (*mkd, lo, size_a) in enumerate(zip(
                            m.tolist(), k.tolist(), [d] * n, seg.tolist(), size.tolist()))]
        self.agents = {a.i: a for a in self.ordered}

        # every c, then every d; the tables say where each edge's rows start
        # among the c
        self.xbar_map = index_ranges(start["x_bar"], d)
        self.c_entries = int(m.sum())
        self.viol_map = np.concatenate([index_ranges(start["c"], m),
                                        index_ranges(slot_rows("d"), d)])
        self.c_starts = tables.starts

    def x_bars(self) -> np.ndarray:
        """Every agent's xbar, one row per agent."""
        return self.arena.take(self.xbar_map).reshape(-1, self.d)

    def violation_norms(self) -> tuple[float, float]:
        """(max ||c||, max ||d||) over every agent at its last dual update: the
        largest of the agents' own ``violation_norms``, bit for bit, as each
        sum of squares is taken by the same reduction (a d = 3 slot summed by
        reduceat would differ in the last bit)."""
        v = self.arena.take(self.viol_map)
        v *= v
        per_edge = np.add.reduceat(v[:self.c_entries], self.c_starts)
        per_slot = np.add.reduce(v[self.c_entries:].reshape(-1, self.d), axis=1)
        return (math.sqrt(np.maximum.reduce(per_edge, initial=0.0)),
                math.sqrt(np.maximum.reduce(per_slot, initial=0.0)))

    def _deliver(self, phase: int) -> list[Message]:
        """Copy every receive slot the phase writes from its sender's entry."""
        dst, src = self.delivery[phase]
        sent = self.arena.take(src)
        self.arena.put(dst, sent)
        if not self.record_trace:
            return []
        kinds = PHASE_KINDS[phase]
        # per kind, one row per slot row in sender order (route is an involution)
        rows = sent.reshape(len(kinds), -1, self.d)[:, self.route]
        rows.flags.writeable = False  # so are the rows the messages carry
        by_kind = dict(zip(kinds, rows))
        pairs = ((a.i, j) for a in self.ordered for j in a.neighbors)
        out = [Message(i, j, self.round, phase, kind, by_kind[kind][q])
               for q, (i, j) in enumerate(pairs) for kind in sorted(kinds)]
        self.trace.extend(out)
        return out

    def run_phase(self, phase: int) -> list[Message]:
        """Run one phase at every agent and deliver its sends."""
        if phase not in PHASE_UPDATES:
            raise ValueError(f"unknown phase {phase}")
        # looked up on every call, so that a wrapper put on the class applies
        update = getattr(AgentState, PHASE_UPDATES[phase])
        for a in self.ordered:
            update(a)
        return self._deliver(phase) if phase in self.delivery else []

    def run_iteration(self) -> None:
        for phase in (PHASE_XBAR, PHASE_COPY, PHASE_DUAL):
            self.run_phase(phase)
        self.round += 1


def message_stats(trace: list[Message]) -> dict[int, dict]:
    """Per-agent outgoing message and float counts, per round: they depend on
    the agent's neighborhood and block sizes only, never on the network size."""
    stats: dict[int, dict] = {}
    for m in trace:
        per_agent = stats.setdefault(m.sender, {})
        per_round = per_agent.setdefault(m.round, {"messages": 0, "floats": 0})
        per_round["messages"] += 1
        per_round["floats"] += len(m.payload)
    return stats

