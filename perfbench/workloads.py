"""Seeded input generators for the benchmark workloads.

Each generator returns a plain scenario document (the dict form of a
scenario YAML file) plus the set of planted faulty agents, drawn from a
``numpy.random.Generator``. The program under test only ever receives the
document; true states inside it are used by ``Scenario.measurements`` to
synthesize sensor readings and by the benchmark to grade the result.
"""

from __future__ import annotations

import math

import numpy as np

from fdirnet.measurements import MeasurementKind
from fdirnet.topology import Hypergraph, validate_connectivity

# Workload parameters; run.py copies them into each result file.
KNN_K = 6
GRID_SPACING = 2.0
GRID_JITTER = 0.6
FAULT_NORM = 1.0
ANGLE_MIN_DEG = 15.0
ANGLE_MAX_DEG = 165.0


def jittered_grid(rng: np.random.Generator, n: int) -> np.ndarray:
    """n positions on a square grid of GRID_SPACING, each coordinate
    jittered uniformly by +-GRID_JITTER (below half the spacing, so no two
    agents can coincide)."""
    side = math.ceil(math.sqrt(n))
    cells = np.array([(c % side, c // side) for c in range(n)], dtype=float)
    return GRID_SPACING * cells + rng.uniform(-GRID_JITTER, GRID_JITTER, (n, 2))


def knn_order(pos: np.ndarray) -> np.ndarray:
    """Row i lists every other agent, nearest first."""
    d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, :-1]


def knn_pairs(order: np.ndarray, k: int) -> list[tuple[int, int]]:
    """Undirected pairs (i < j) where j is among i's k nearest or vice versa."""
    pairs = {(min(i, int(j)), max(i, int(j)))
             for i in range(order.shape[0]) for j in order[i, :k]}
    return sorted(pairs)


def _angle_deg(pos, i, j, k) -> float:
    u, v = pos[j] - pos[i], pos[k] - pos[i]
    c = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
    return math.degrees(math.acos(max(-1.0, min(1.0, c))))


def _angle_triple(pos, order, i, k) -> tuple[int, int, int]:
    """(i, a, b) with a, b among i's k nearest and the angle at i in range."""
    nn = [int(j) for j in order[i, :k]]
    for x in range(len(nn)):
        for y in range(x + 1, len(nn)):
            if ANGLE_MIN_DEG <= _angle_deg(pos, i, nn[x], nn[y]) <= ANGLE_MAX_DEG:
                return (i, nn[x], nn[y])
    raise ValueError(f"agent {i}: no neighbour pair subtends an angle in range")


def _document(true_pos, reported_pos, edges) -> dict:
    agents = []
    for i, (t, r) in enumerate(zip(true_pos, reported_pos)):
        entry = {"id": i, "true_state": [float(v) for v in t]}
        if not np.array_equal(t, r):
            entry["reported_state"] = [float(v) for v in r]
        agents.append(entry)
    return {"dimension": 2, "agents": agents,
            "edges": [{"kind": kind.value, "members": list(m)} for kind, m in edges]}


def _require_connected(n: int, edges) -> None:
    graph = Hypergraph(n, tuple(m for _, m in edges),
                       tuple(kind for kind, _ in edges))
    connected, comps = validate_connectivity(graph)
    if not connected:
        raise ValueError(f"generated network is disconnected: {len(comps)} components")


def knn_fault(rng: np.random.Generator, n: int) -> tuple[dict, frozenset]:
    """A kNN distance network with one planted fault of norm FAULT_NORM.

    The generator draws the jitter and the fault's direction. Where the
    fault sits sets most of a solve's cost, so it is not drawn: it is at
    agent 0, a corner of the grid.
    """
    pos = jittered_grid(rng, n)
    edges = [(MeasurementKind.DISTANCE, p) for p in knn_pairs(knn_order(pos), KNN_K)]
    _require_connected(n, edges)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    reported = pos.copy()
    reported[0] += FAULT_NORM * np.array([math.cos(angle), math.sin(angle)])
    return _document(pos, reported, edges), frozenset({0})


def knn_healthcheck(rng: np.random.Generator, n: int) -> tuple[dict, frozenset]:
    """Fault-free kNN network using all five measurement kinds.

    Distance, bearing and displacement take turns over the kNN pairs; every
    agent also anchors one TDoA and one subtended-angle triple on its
    nearest neighbours.
    """
    pos = jittered_grid(rng, n)
    order = knn_order(pos)
    pair_kinds = (MeasurementKind.DISTANCE, MeasurementKind.BEARING,
                  MeasurementKind.DISPLACEMENT)
    edges = [(pair_kinds[e % 3], p) for e, p in enumerate(knn_pairs(order, KNN_K))]
    for i in range(n):
        edges.append((MeasurementKind.TDOA, (i, int(order[i, 0]), int(order[i, 1]))))
        edges.append((MeasurementKind.SUBTENDED_ANGLE, _angle_triple(pos, order, i, KNN_K)))
    _require_connected(n, edges)
    return _document(pos, pos, edges), frozenset()

