"""Shared builders and independent reference oracles for the tests.

The oracles here deliberately avoid the code paths they check: direct
composite-gradient minimization instead of the closed-form case split,
dense matrices instead of block-sparse products.
"""

from __future__ import annotations

import numpy as np
import pytest

from fdirnet.agent import AgentState
from fdirnet.blocklin import BlockVec
from fdirnet.measurements import MeasurementKind, MeasurementStack
from fdirnet.topology import Hypergraph, build_tables


# ---------------------------------------------------------------------
# direct minimization oracle for f(v) = ||v|| + 1/2 ||A v - b||^2
# ---------------------------------------------------------------------

def shrink(u: np.ndarray, thresh: float) -> np.ndarray:
    nrm = np.linalg.norm(u)
    if nrm <= thresh:
        return np.zeros_like(u)
    return (1.0 - thresh / nrm) * u


def composite_gradient_minimize(A, b, v0, iters=5000, change_tol=1e-14):
    """Proximal-gradient descent on ||v|| + 1/2||Av-b||^2 from v0."""
    A = np.atleast_2d(np.asarray(A, float))
    b = np.atleast_1d(np.asarray(b, float))
    gram = A.T @ A
    g = A.T @ b
    lip = max(np.linalg.eigvalsh(gram).max(), 1e-12)
    step = 1.0 / lip
    v = np.asarray(v0, float).copy()
    for _ in range(iters):
        v_new = shrink(v - step * (gram @ v - g), step)
        if np.linalg.norm(v_new - v) <= change_tol:
            return v_new
        v = v_new
    return v


def multistart_minimize(A, b, rng, starts=20, iters=5000):
    """Best of several proximal-gradient runs from random starts."""
    A = np.atleast_2d(np.asarray(A, float))
    n = A.shape[1]
    best_v, best_f = None, np.inf
    for s in range(starts):
        v0 = np.zeros(n) if s == 0 else rng.normal(scale=2.0, size=n)
        v = composite_gradient_minimize(A, b, v0, iters=iters)
        val = np.linalg.norm(v) + 0.5 * np.linalg.norm(A @ v - b) ** 2
        if val < best_f:
            best_f, best_v = val, v
    return best_v


# ---------------------------------------------------------------------
# network builders
# ---------------------------------------------------------------------

def geometric_positions(rng, n, d=2, low=0.0, high=5.0, min_sep=0.5):
    """Random positions with a minimum pairwise separation."""
    while True:
        pts = rng.uniform(low, high, size=(n, d))
        diffs = pts[:, None, :] - pts[None, :, :]
        dist = np.linalg.norm(diffs, axis=-1)
        np.fill_diagonal(dist, np.inf)
        if dist.min() > min_sep:
            return pts


def all_pairs_distance_stack(n, d=2):
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    kinds = tuple(MeasurementKind.DISTANCE for _ in edges)
    return MeasurementStack(Hypergraph(n, edges, kinds), d)


def mixed_stack(n, d=2):
    """Spanning chain of displacement edges plus all other pairs as distances."""
    edges = [(i, i + 1) for i in range(n - 1)]
    kinds = [MeasurementKind.DISPLACEMENT] * len(edges)
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges:
                edges.append((i, j))
                kinds.append(MeasurementKind.DISTANCE)
    return MeasurementStack(Hypergraph(n, tuple(edges), tuple(kinds)), d)


def path_distance_stack(n, d=2):
    edges = tuple((i, i + 1) for i in range(n - 1))
    kinds = tuple(MeasurementKind.DISTANCE for _ in edges)
    return MeasurementStack(Hypergraph(n, edges, kinds), d)


# ---------------------------------------------------------------------
# randomized agent states (for threshold-equivalence style tests)
# ---------------------------------------------------------------------

def random_agent_state(rng, rho=None, n_edges=None, n_nbrs=None, d=2):
    """One agent with random incident structure, duals, copies and x*,
    packed in the layout the agent module documents."""
    rho = rho if rho is not None else float(rng.uniform(0.3, 3.0))
    n_edges = n_edges if n_edges is not None else int(rng.integers(0, 4))
    n_nbrs = n_nbrs if n_nbrs is not None else int(rng.integers(1, 4))
    i = 0
    nbrs = list(range(1, n_nbrs + 1))
    edges = []  # (members, Jacobian block per member, r)
    for _ in range(n_edges):
        others = list(rng.choice(nbrs, size=int(rng.integers(1, min(2, n_nbrs) + 1)),
                                 replace=False))
        members = tuple([i] + [int(o) for o in others])
        m_l = int(rng.integers(1, 3))
        edges.append((members, {j: rng.normal(size=(m_l, d)) for j in members},
                      rng.normal(size=m_l)))
    x_star = rng.normal(size=d)
    # give every consensus neighbor at least one shared edge
    covered = {j for members, _, _ in edges for j in members}
    for j in nbrs:
        if j not in covered:
            edges.append(((i, j), {i: rng.normal(size=(1, d)), j: rng.normal(size=(1, d))},
                          rng.normal(size=1)))
    rows = [0]
    for _, _, r in edges:
        rows.append(rows[-1] + len(r))
    J = np.zeros((rows[-1], d * (n_nbrs + 1)))
    for e, (members, R, _) in enumerate(edges):
        for j in members:  # agent i is column block 0, neighbor j block j
            J[rows[e]:rows[e + 1], d * j:d * (j + 1)] = R[j]
    state = AgentState(i=i, rho=rho, x_star=x_star, neighbors=tuple(nbrs),
                       incident=tuple(range(len(edges))), rows=tuple(rows), J=J,
                       r=np.concatenate([r for _, _, r in edges]))
    state.w[:] = rng.normal(size=(n_nbrs, d))
    state.lam_rows[:] = rng.normal(size=rows[-1])
    state.mu[:] = rng.normal(size=(n_nbrs, d))
    state.nbr_copy_of_me[:] = rng.normal(size=(n_nbrs, d))
    state.nbr_xbar[:] = rng.normal(size=(n_nbrs, d))
    state.nbr_mu[:] = rng.normal(size=(n_nbrs, d))
    return state


def fresh_copy(a: AgentState) -> AgentState:
    """An agent built fresh from a's linearization, holding a copy of a's
    round state: nothing a kept from earlier updates carries over."""
    fresh = AgentState(i=a.i, rho=a.rho, x_star=a.x_star, neighbors=a.neighbors,
                       incident=a.incident, rows=a.rows, J=a.J, r=a.r)
    for name in ("lam_rows", "x_bar", "mu", "w", "nbr_xbar", "nbr_mu",
                 "nbr_copy_of_me"):
        getattr(fresh, name)[:] = getattr(a, name)
    return fresh


def step3_objective(state: AgentState, xhat_i) -> float:
    """The per-agent primal objective, built from the constraint functions."""
    xhat_i = np.asarray(xhat_i, float)
    quad = 0.0
    for l in state.incident:
        quad += np.linalg.norm(state.constraint_c(l, xhat_i) + state.lam[l]) ** 2
    for j, mu_j in zip(state.neighbors, state.mu):
        quad += np.linalg.norm(state.constraint_d(j, xhat_i) + mu_j) ** 2
    return float(np.linalg.norm(state.x_star + xhat_i) + 0.5 * state.rho * quad)


def minimize_step3_direct(state: AgentState, rng, starts=10, iters=20000):
    """Minimize the step-3 objective by numerically rebuilding its smooth
    quadratic part (basis-vector probing) and running proximal gradient in
    the total-error variable; independent of assemble_local_problem."""
    n = state.n_i

    def smooth(v):
        # objective minus the norm term, as a function of v = x* + xhat
        return step3_objective(state, v - state.x_star) - np.linalg.norm(v)

    e = np.eye(n)
    f0 = smooth(np.zeros(n))
    H = np.zeros((n, n))
    for a in range(n):
        H[a, a] = smooth(e[a]) + smooth(-e[a]) - 2.0 * f0
    for a in range(n):
        for bcol in range(a + 1, n):
            H[a, bcol] = H[bcol, a] = 0.5 * (
                smooth(e[a] + e[bcol]) + smooth(-e[a] - e[bcol]) - 2.0 * f0
                - H[a, a] - H[bcol, bcol]
            )
    lin = np.array([smooth(e[a]) - f0 - 0.5 * H[a, a] for a in range(n)])

    lip = max(np.linalg.eigvalsh(H).max(), 1e-12)
    step = 1.0 / lip
    best_v, best_f = None, np.inf
    for s in range(starts):
        v = np.zeros(n) if s == 0 else rng.normal(scale=2.0, size=n)
        for _ in range(iters):
            v_new = shrink(v - step * (H @ v + lin), step)
            if np.linalg.norm(v_new - v) <= 1e-14:
                break
            v = v_new
        val = np.linalg.norm(v) + 0.5 * v @ H @ v + lin @ v + f0
        if val < best_f:
            best_f, best_v = val, v
    return best_v  # in the v = x* + xhat variable


# ---------------------------------------------------------------------

@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
