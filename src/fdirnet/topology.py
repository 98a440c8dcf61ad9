"""Hypergraph model of the sensing/communication topology.

Vertices are 0..num_vertices-1. Each hyperedge is an ordered tuple of
member vertices and carries an optional measurement-kind tag; ordering of
both vertices and edges is fixed at construction. Duplicate hyperedges are
allowed (two sensors can measure the same quantity).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Hypergraph:
    num_vertices: int
    edges: tuple[tuple[int, ...], ...]
    kinds: tuple | None = None  # one tag per edge, or None

    def __post_init__(self):
        object.__setattr__(
            self, "edges", tuple(tuple(int(v) for v in e) for e in self.edges)
        )
        for l, e in enumerate(self.edges):
            if len(e) == 0:
                raise ValueError(f"edge {l} is empty")
            if len(set(e)) != len(e):
                raise ValueError(f"edge {l} repeats a vertex")
            for v in e:
                if not 0 <= v < self.num_vertices:
                    raise ValueError(f"edge {l} references vertex {v} out of range")
        if self.kinds is not None and len(self.kinds) != len(self.edges):
            raise ValueError("kinds must have one entry per edge")

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class NeighborTables:
    """Per-vertex neighbor sets N_i and incident-edge index sets E_i."""

    neighbors: tuple[frozenset, ...]
    incident: tuple[tuple[int, ...], ...]


def build_tables(g: Hypergraph) -> NeighborTables:
    neighbors = [set() for _ in range(g.num_vertices)]
    incident = [[] for _ in range(g.num_vertices)]
    for l, e in enumerate(g.edges):
        for i in e:
            incident[i].append(l)
            for j in e:
                if j != i:
                    neighbors[i].add(j)
    return NeighborTables(
        neighbors=tuple(frozenset(s) for s in neighbors),
        incident=tuple(tuple(sorted(ix)) for ix in incident),
    )


def validate_connectivity(g: Hypergraph) -> tuple[bool, list[list[int]]]:
    """Connectivity of the derived simple graph (pairs co-appearing in an edge).

    Returns (connected, components), each component an ascending vertex
    list and the components ordered by their lowest vertex. A disconnected
    network cannot reach consensus across components, so callers should
    treat False as fatal for end-to-end runs.
    """
    neighbors = build_tables(g).neighbors
    seen: set[int] = set()
    components = []
    for root in range(g.num_vertices):
        if root in seen:
            continue
        comp, todo = {root}, [root]
        while todo:
            new = neighbors[todo.pop()] - comp
            comp |= new
            todo.extend(new)
        seen |= comp
        components.append(sorted(comp))
    return len(components) <= 1, components
