"""Per-agent ADMM state and the round updates.

Each agent i owns its error increment block xhat[i] (reported through
xbar[i]), copies w[j] of each neighbor's block, one scaled dual per
incident hyperedge constraint and one per pairwise consensus constraint.
Only scaled duals (dual / rho) are ever stored; they evolve as running
sums of constraint violations.

The state is packed into a fixed set of arrays whatever the agent's
degree. With k neighbors and blocks of length d:

  * rows: the rows of every incident edge, edges in ascending index
    order; ``rows[e]:rows[e + 1]`` are the rows of ``incident[e]``.
    ``J`` (rows x (1 + k) d), ``r`` and ``lam_rows`` share this order.
  * columns of ``J``: d wide per block, own block first, then one slot per
    neighbor in ascending id order.
  * slots: ``mu``, ``w``, ``nbr_xbar``, ``nbr_mu`` and ``nbr_copy_of_me``
    are (k x d), row s belonging to neighbor ``neighbors[s]``.

``x_star``, ``J`` and ``r`` change once per linearization. The round state
(``lam_rows``, ``x_bar`` and the five slot arrays) is rewritten in place.

Local constraint functions, with r the linearized measurement residual
and J the Jacobian at the current linearization point:

    c_i(xhat_i, w) = J [xhat_i; w] - r             (one row per edge row)
    d_i^j(xhat_i)  = xhat_i - (neighbor j's copy of block i)

The x-update is the minimization of

    ||x*[i] + xhat_i|| + rho/2 ( ||c_i + lam||^2 + sum_j ||d_i^j + mu[j]||^2 )

which, after the change of variables v = x*[i] + xhat_i, is exactly a
ProxProblem with A_i stacking sqrt(rho) times the own-block columns of J
and sqrt(rho) I per neighbor. Its closed-form zero test yields the
thresholding fast path: xbar[i] = -x*[i] without any iterative solve
whenever the agent's residual norm is at most 1/rho.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .prox import ProxProblem, solve_prox


class EdgeView(NamedTuple):
    """One incident edge's rows of the packed linearization (views)."""

    J: np.ndarray  # rows x (1 + k) d, columns [self | neighbors ascending]
    r: np.ndarray


@dataclass(slots=True, eq=False)
class AgentState:
    i: int
    rho: float
    x_star: np.ndarray  # accumulated error estimate block x*[i]
    neighbors: tuple[int, ...]  # ascending; slot s belongs to neighbors[s]
    incident: tuple[int, ...]  # ascending incident edge indices
    rows: tuple[int, ...]  # row offsets of each incident edge, len(incident) + 1
    J: np.ndarray  # local Jacobian, see the module docstring
    r: np.ndarray  # linearized residual per row

    lam_rows: np.ndarray = field(init=False)  # scaled edge dual per row
    mu: np.ndarray = field(init=False)  # scaled consensus dual per slot
    w: np.ndarray = field(init=False)  # my copy of each neighbor's block

    # received this round, one row per slot
    nbr_xbar: np.ndarray = field(init=False)
    nbr_mu: np.ndarray = field(init=False)  # mu_j^(i) from each j
    nbr_copy_of_me: np.ndarray = field(init=False)  # w_j^(i) from each j

    x_bar: np.ndarray = field(init=False)
    fast_path: bool = field(init=False, default=False)
    # (max ||c||, max ||d||) over edges and neighbors, set by dual_update
    violations: tuple[float, float] = field(init=False, default=(0.0, 0.0))

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        self.x_star = np.asarray(self.x_star, dtype=float).copy()
        self.J = np.asarray(self.J, dtype=float)
        self.r = np.asarray(self.r, dtype=float)
        m, k, d = self.rows[-1], len(self.neighbors), self.n_i
        if self.J.shape != (m, (1 + k) * d) or self.r.shape != (m,):
            raise ValueError(f"J {self.J.shape} and r {self.r.shape} do not fit "
                             f"{m} rows and {k} neighbors")
        # the round state shares one buffer and the updates write it in place;
        # at round 0 everything is zero, the copies too (xhat starts at 0)
        state = np.zeros(m + d + 5 * k * d)
        self.lam_rows, self.x_bar = state[:m], state[m:m + d]
        (self.mu, self.w, self.nbr_xbar, self.nbr_mu,
         self.nbr_copy_of_me) = state[m + d:].reshape(5, k, d)

    @property
    def n_i(self) -> int:
        return len(self.x_star)

    # ----- per-edge views, built on demand (not used by the updates) ------

    def _edge_rows(self, l: int) -> slice:
        e = self.incident.index(l)
        return slice(self.rows[e], self.rows[e + 1])

    @property
    def edges(self) -> dict[int, EdgeView]:
        return {l: EdgeView(self.J[self._edge_rows(l)], self.r[self._edge_rows(l)])
                for l in self.incident}

    @property
    def lam(self) -> dict[int, np.ndarray]:
        """Scaled dual of each incident edge, as views into lam_rows."""
        return {l: self.lam_rows[self._edge_rows(l)] for l in self.incident}

    # ----- constraint functions ---------------------------------------

    def _c(self, xhat_i) -> np.ndarray:
        """c_i at (xhat_i, w), every incident edge's rows."""
        return self.J @ np.concatenate([xhat_i, self.w.ravel()]) - self.r

    def _d(self, xhat_i) -> np.ndarray:
        """d_i^j at xhat_i, one row per neighbor slot."""
        return xhat_i - self.nbr_copy_of_me

    def constraint_c(self, l: int, xhat_i) -> np.ndarray:
        return self._c(np.asarray(xhat_i, dtype=float))[self._edge_rows(l)]

    def constraint_d(self, j: int, xhat_i) -> np.ndarray:
        return self._d(np.asarray(xhat_i, dtype=float))[self.neighbors.index(j)]

    # ----- x-update ---------------------------------------------------

    def assemble_local_problem(self) -> ProxProblem:
        """The subproblem in the variable v = x*[i] + xhat_i."""
        if not len(self.r) and not self.neighbors:
            # isolated agent: only the norm term remains, minimizer v = 0
            return ProxProblem(np.zeros((1, self.n_i)), np.zeros(1))
        sq = np.sqrt(self.rho)
        eyes = np.tile(np.eye(self.n_i), (len(self.neighbors), 1))
        A = np.vstack([self.J[:, :self.n_i], eyes])
        b = np.concatenate([self._c(-self.x_star) + self.lam_rows,
                            (self._d(-self.x_star) + self.mu).ravel()])
        return ProxProblem(sq * A, -sq * b)

    def residual_norm(self) -> float:
        """Norm of the dual-adjusted aggregated violations; equals
        ||A_i^T b_i|| / rho, so the fast path fires iff this is <= 1/rho."""
        acc = self.J[:, :self.n_i].T @ (self._c(-self.x_star) + self.lam_rows)
        acc += (self._d(-self.x_star) + self.mu).sum(axis=0)
        return float(np.linalg.norm(acc))

    def primal_update_x(self, tol: float = 1e-9) -> np.ndarray:
        if self.residual_norm() <= 1.0 / self.rho:
            self.fast_path = True
            np.negative(self.x_star, out=self.x_bar)
        else:
            self.fast_path = False
            sol = solve_prox(self.assemble_local_problem(), tol=tol)
            np.subtract(sol.v_star, self.x_star, out=self.x_bar)
        return self.x_bar

    # ----- w-update ---------------------------------------------------

    def primal_update_w(self) -> np.ndarray:
        """Jointly minimize, over my copies w (all slots),

            ||c_i(xbar_i, w) + lam||^2 + sum_j ||xbar[j] - w[j] + mu_j^(i)||^2

        With J_n the neighbor columns of J, the normal equations are
        (I + J_n^T J_n) w = xbar + mu - J_n^T (c_i(xbar_i, 0) + lam); the
        identity makes them positive definite, so a dense solve is exact.
        """
        if not self.neighbors:
            return self.w
        Jn = self.J[:, self.n_i:]
        H = Jn.T @ Jn + np.eye(Jn.shape[1])
        const = self.J[:, :self.n_i] @ self.x_bar - self.r + self.lam_rows
        rhs = (self.nbr_xbar + self.nbr_mu).ravel() - Jn.T @ const
        self.w[:] = np.linalg.solve(H, rhs).reshape(self.w.shape)
        return self.w

    # ----- dual update ------------------------------------------------

    def dual_update(self) -> None:
        """Running-sum update of the scaled duals with the current
        violations, whose largest norms it keeps for violation_norms."""
        c = self._c(self.x_bar)
        d = self._d(self.x_bar)
        self.lam_rows += c
        self.mu += d
        max_c = np.sqrt(np.add.reduceat(c * c, self.rows[:-1]).max()) if len(c) else 0.0
        max_d = np.sqrt((d * d).sum(axis=1).max()) if len(d) else 0.0
        self.violations = (float(max_c), float(max_d))

    # ----- diagnostics ------------------------------------------------

    def violation_norms(self) -> tuple[float, float]:
        """(max ||c||, max ||d||) at the (xbar, w) of the last dual update."""
        return self.violations
