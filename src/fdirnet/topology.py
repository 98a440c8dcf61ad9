"""Hypergraph model of the sensing/communication topology, and the packed
tables that keep every agent's computation and messages local.

Vertices are 0..num_vertices-1. Each hyperedge is an ordered tuple of
member vertices and carries an optional measurement-kind tag; ordering of
both vertices and edges is fixed at construction. Duplicate hyperedges are
allowed (two sensors can measure the same quantity).

``Hypergraph`` holds every edge's members end to end in ``members`` and each
edge's count in ``arity``, as the loader hands them on, and runs its checks
(empty, range, repeats, kinds) once on them; an error names the lowest
offending edge. ``edges``, a tuple of member tuples, is built on first read;
the solve never reads it. ``build_tables`` packs from the arrays with numpy
each vertex's neighbors N_i (the vertices it shares an edge with), incident
edges E_i and their rows into ``Tables``, once per network
(``solver.build_network``), for the ``netsim.Network``, its agents and its
linearization maps.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, islice

import numpy as np


class Hypergraph:
    """``Hypergraph(n, edges, kinds)`` from one member tuple per edge, or
    ``Hypergraph.from_flat(n, members, arity, kinds)`` from the flat arrays."""

    def __init__(self, num_vertices: int, edges, kinds: tuple | None = None):
        edges = tuple(map(tuple, edges))
        self._check(num_vertices, np.fromiter(chain.from_iterable(edges), object),
                    np.fromiter(map(len, edges), np.intp, len(edges)), kinds)

    @classmethod
    def from_flat(cls, num_vertices: int, members, arity, kinds: tuple | None = None):
        """Edge l has the next arity[l] integers of members (an array, or a list)."""
        members = np.array(members, None if isinstance(members, np.ndarray) else object)
        arity = np.array(arity, np.intp)
        if arity.sum() != len(members):
            raise ValueError(f"arity sums to {arity.sum()}, not to the {len(members)} members")
        return cls.__new__(cls)._check(num_vertices, members, arity, kinds)

    def _check(self, n: int, members: np.ndarray, arity: np.ndarray, kinds) -> Hypergraph:
        edge = np.repeat(np.arange(len(arity)), arity)  # of each member entry
        if not arity.all():
            raise ValueError(f"edge {np.argmin(arity)} is empty")
        odd = [] if members.dtype.kind in "iu" else [  # bool is an int; int() truncates floats
            isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in members.tolist()]
        if True in odd:
            l = edge[odd.index(True)]
            raise ValueError(f"edge {l} has a member that is not an integer: "
                             f"{tuple(members[edge == l].tolist())}")
        if len(members) and not (members.min() >= 0 and members.max() < n):
            out = np.flatnonzero((members < 0) | (members >= n))[0]
            raise ValueError(f"edge {edge[out]} references vertex {members[out]} out of range")
        members = members.astype(np.intp, copy=False)
        key = np.sort(edge * n + members)  # by edge, then member
        if len(twice := np.flatnonzero(key[1:] == key[:-1])):
            raise ValueError(f"edge {key[twice[0]] // n} repeats a vertex")
        if kinds is not None and len(kinds) != len(arity):
            raise ValueError("kinds must have one entry per edge")
        members.flags.writeable = arity.flags.writeable = False
        vars(self).update(num_vertices=n, num_edges=len(arity), members=members, arity=arity,
                          kinds=kinds)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"a Hypergraph is immutable: cannot set {name}")

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """Each edge's members as a tuple of ints, built on first read."""
        flat = iter(self.members.tolist())
        return tuple(tuple(islice(flat, k)) for k in self.arity.tolist())

    def _key(self) -> tuple:  # equal keys: the same vertices, edges in order and kinds
        return self.num_vertices, self.members.tobytes(), self.arity.tobytes(), self.kinds

    def __eq__(self, other):
        return isinstance(other, Hypergraph) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def index_ranges(starts: np.ndarray, lengths) -> np.ndarray:
    """The ranges [s, s + l) for each start s and length l, concatenated."""
    lengths = np.broadcast_to(lengths, starts.shape)
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(lengths.sum())


class Tables:
    """Each agent's neighbors and incident edges, both ascending, packed for
    agents first, first + 1, ...: agent first + q has the neighbors
    nbrs[nbr_ptr[q]:nbr_ptr[q + 1]] and the incident edges edges[ptr[q]:ptr[q + 1]],
    and owns slot s if slot_agent[s] = q and entry e if entry_agent[e] = q.
    Over n agents, key[s] = slot_agent[s] n + nbrs[s] is slot s's key. With every
    agent's rows laid end to end, entry e's edge has the rows[e] rows from
    starts[e] on and agent first + q the rows row_ptr[q]:row_ptr[q + 1]."""

    __slots__ = ("first", "nbrs", "nbr_ptr", "slot_agent", "key", "edges", "ptr",
                 "entry_agent", "rows", "starts", "row_ptr")

    def __init__(self, nbrs, nbr_ptr, edges, ptr, rows, first=0):
        """Packed neighbors and incident edges; rows[e]: entry e's row count."""
        self.first, self.nbrs, self.nbr_ptr, self.edges, self.ptr = first, nbrs, nbr_ptr, edges, ptr
        n = len(nbr_ptr) - 1
        self.slot_agent = np.repeat(np.arange(n), np.diff(nbr_ptr))
        self.entry_agent = np.repeat(np.arange(n), np.diff(ptr))
        self.key = self.slot_agent * n + nbrs
        self.rows = rows
        ends = np.cumsum(rows, dtype=np.intp)
        self.starts = ends - rows
        self.row_ptr = np.append(0, ends)[ptr]

    def of(self, a) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Agent a's neighbors, incident edges and their row offsets, as tuples."""
        q = a - self.first
        lo, hi = self.ptr[q:q + 2]
        rows = np.append(self.starts[lo:hi], self.row_ptr[q + 1]) - self.row_ptr[q]
        return (tuple(self.nbrs[self.nbr_ptr[q]:self.nbr_ptr[q + 1]].tolist()),
                tuple(self.edges[lo:hi].tolist()), tuple(rows.tolist()))

    def slot(self, i, j) -> np.ndarray:
        """The slot of agent i that belongs to its neighbor j, elementwise."""
        return np.searchsorted(self.key, i * (len(self.nbr_ptr) - 1) + j) - self.nbr_ptr[i]


def build_tables(g: Hypergraph, rows) -> Tables:
    """The tables of every vertex of g, whose edge l has rows[l] rows."""
    n, arity, members = g.num_vertices, g.arity, g.members
    edge = np.repeat(np.arange(g.num_edges), arity)  # of each member entry
    order = np.lexsort((edge, members))  # by member, then edge
    edges = edge[order]
    # each member entry paired with every member of its edge, itself dropped
    co = arity[edge]
    i = np.repeat(members, co)
    j = members[index_ranges(np.repeat(np.cumsum(arity) - arity, arity), co)]
    pairs = np.unique((i * n + j)[i != j])  # i n + j: ascending by i, then j
    return Tables(pairs % n, np.searchsorted(pairs, np.arange(n + 1) * n), edges,
                  np.searchsorted(members[order], np.arange(n + 1)),
                  np.asarray(rows, np.intp)[edges])


def validate_connectivity(g: Hypergraph) -> tuple[bool, list[list[int]]]:
    """Connectivity of the derived simple graph (pairs co-appearing in an edge).

    Returns (connected, components), each component an ascending vertex
    list and the components ordered by their lowest vertex. The solve needs
    none of it: each component is solved on its own, consensus never crosses
    one, and ``fdirnet run`` names the agents that no edge involves.
    """
    label, starts = np.arange(g.num_vertices), np.cumsum(g.arity) - g.arity
    while len(starts):  # each edge's members take their lowest label, until none changes
        low = np.repeat(np.minimum.reduceat(label[g.members], starts), g.arity)
        if (low == label[g.members]).all():
            break
        np.minimum.at(label, g.members, low)
    components = [np.flatnonzero(label == root).tolist() for root in np.unique(label)]
    return len(components) <= 1, components
