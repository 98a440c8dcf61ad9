"""Hypergraph model of the sensing/communication topology, and the packed
tables that keep every agent's computation and messages local.

Vertices are 0..num_vertices-1. Each hyperedge is an ordered tuple of
member vertices and carries an optional measurement-kind tag; ordering of
both vertices and edges is fixed at construction. Duplicate hyperedges are
allowed (two sensors can measure the same quantity).

``Hypergraph`` lays all members end to end in one array, ``members``, with
each edge's count in ``arity``, and runs its checks (empty, member type,
range, repeats) once on them; an error names the lowest offending edge.
``build_tables`` packs from those arrays with numpy each vertex's neighbors
N_i (the vertices it shares an edge with), incident edges E_i and their rows
into ``Tables``, once per network (``solver.build_network``): the
``netsim.Network``, its agents, the solver's fill map and
``validate_connectivity`` all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np


@dataclass(frozen=True)
class Hypergraph:
    num_vertices: int
    edges: tuple[tuple[int, ...], ...]
    kinds: tuple | None = None  # one tag per edge, or None
    members: np.ndarray = field(init=False, repr=False, compare=False)  # all, end to end
    arity: np.ndarray = field(init=False, repr=False, compare=False)  # each edge's count

    def __post_init__(self):
        edges = tuple(map(tuple, self.edges))
        arity = np.fromiter(map(len, edges), np.intp, len(edges))
        flat = list(chain.from_iterable(edges))
        edge = np.repeat(np.arange(len(edges)), arity)  # of each member entry
        if not arity.all():
            raise ValueError(f"edge {np.argmin(arity)} is empty")
        types = set(map(type, flat))
        # bool subclasses int, and int() would truncate a float
        odd = {t for t in types if issubclass(t, bool) or not issubclass(t, (int, np.integer))}
        if odd:
            l = edge[[type(v) in odd for v in flat].index(True)]
            raise ValueError(f"edge {l} has a member that is not an integer: {edges[l]}")
        members = np.array(flat)  # of objects if an int is beyond int64
        if len(out := np.flatnonzero((members < 0) | (members >= self.num_vertices))):
            raise ValueError(f"edge {edge[out[0]]} references vertex {flat[out[0]]} out of range")
        members = members.astype(np.intp, copy=False)
        key = np.sort(edge * self.num_vertices + members)  # by edge, then member
        if len(twice := np.flatnonzero(key[1:] == key[:-1])):
            raise ValueError(f"edge {key[twice[0]] // self.num_vertices} repeats a vertex")
        if self.kinds is not None and len(self.kinds) != len(edges):
            raise ValueError("kinds must have one entry per edge")
        if types - {int}:  # numpy integers become ints
            edges = tuple(tuple(map(int, e)) for e in edges)
        members.flags.writeable = arity.flags.writeable = False
        vars(self).update(edges=edges, members=members, arity=arity)  # past the frozen setattr

    @property
    def num_edges(self) -> int:
        return len(self.edges)


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
    list and the components ordered by their lowest vertex. A disconnected
    network cannot reach consensus across components, so callers should
    treat False as fatal for end-to-end runs.
    """
    t = build_tables(g, np.zeros(g.num_edges, np.intp))  # only the neighbors are read
    nbrs, ptr = t.nbrs.tolist(), t.nbr_ptr.tolist()
    seen: set[int] = set()
    components = []
    for root in range(g.num_vertices):
        if root in seen:
            continue
        comp, todo = {root}, [root]
        while todo:
            v = todo.pop()
            new = set(nbrs[ptr[v]:ptr[v + 1]]) - comp
            comp |= new
            todo.extend(new)
        seen |= comp
        components.append(sorted(comp))
    return len(components) <= 1, components
