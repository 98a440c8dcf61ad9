"""Hypergraph model of the sensing/communication topology, and the packed
tables that keep every agent's computation and messages local.

Vertices are 0..num_vertices-1. Each hyperedge is an ordered tuple of
member vertices and carries an optional measurement-kind tag; ordering of
both vertices and edges is fixed at construction. Duplicate hyperedges are
allowed (two sensors can measure the same quantity).

``build_tables`` packs with numpy each vertex's neighbors N_i (the vertices
it shares an edge with), incident edges E_i and their rows into ``Tables``,
once per network (``solver.build_network``): the ``netsim.Network``, its
agents, the solver's fill map and ``validate_connectivity`` all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np


@dataclass(frozen=True)
class Hypergraph:
    num_vertices: int
    edges: tuple[tuple[int, ...], ...]
    kinds: tuple | None = None  # one tag per edge, or None

    def __post_init__(self):
        edges = tuple(map(tuple, self.edges))
        for l, e in enumerate(edges):
            if len(e) == 0:
                raise ValueError(f"edge {l} is empty")
            for v in e:
                # bool subclasses int, and int() would truncate a float
                if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                    raise ValueError(f"edge {l} has a member that is not an integer: {e}")
                if not 0 <= v < self.num_vertices:
                    raise ValueError(f"edge {l} references vertex {v} out of range")
            if len(set(e)) != len(e):
                raise ValueError(f"edge {l} repeats a vertex")
        object.__setattr__(self, "edges", tuple(tuple(map(int, e)) for e in edges))
        if self.kinds is not None and len(self.kinds) != len(self.edges):
            raise ValueError("kinds must have one entry per edge")

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
    nbrs[nbr_ptr[q]:nbr_ptr[q + 1]] and the incident edges edges[ptr[q]:ptr[q + 1]].
    Over n agents, key[s] = q n + nbrs[s] is slot s's key. With every agent's
    rows laid end to end, entry e's edge has the rows from starts[e] on and
    agent first + q the rows row_ptr[q]:row_ptr[q + 1]."""

    __slots__ = ("first", "nbrs", "nbr_ptr", "key", "edges", "ptr", "starts", "row_ptr")

    def __init__(self, nbrs, nbr_ptr, edges, ptr, rows, first=0):
        """Packed neighbors and incident edges; rows[e]: entry e's row count."""
        self.first, self.nbrs, self.nbr_ptr, self.edges, self.ptr = first, nbrs, nbr_ptr, edges, ptr
        n = len(nbr_ptr) - 1
        self.key = np.repeat(np.arange(n), np.diff(nbr_ptr)) * n + nbrs
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
    n = g.num_vertices
    arity = np.fromiter(map(len, g.edges), np.intp, g.num_edges)
    members = np.fromiter(chain.from_iterable(g.edges), np.intp, arity.sum())
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
