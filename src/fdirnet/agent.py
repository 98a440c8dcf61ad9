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

``x_star``, ``J`` and ``r`` change once per linearization, and the agent
takes each one itself (``relinearize``), checking its shape. Two operators
are fixed for a whole linearization, so each is formed once for it and
dropped at the next one:

  * the w-update's inverse H^-1 = (I + J_n^T J_n)^-1, formed when the
    linearization is taken, so that each w-update is one matrix-vector
    product;
  * the x-update's prox matrix A with the eigendecomposition of A^T A,
    formed on the first x-update that misses the fast path; later ones
    build and check only the new right-hand side. An agent that always
    takes the fast path never forms it.

The round state (``lam_rows``, ``x_bar`` and the five slot arrays) is
rewritten in place.

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
whenever the agent's residual norm is at most 1/rho. Otherwise the agent
solves the subproblem exactly through its secular equation
(``prox.solve_exact``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# The exact solver is bound under the name ``solve_prox``: benchmark
# tracing wraps ``agent.solve_prox`` by name to time and count the prox
# solves, so renaming this binding would detach those metrics.
from .prox import ProxProblem, solve_exact as solve_prox


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
    H_inv: np.ndarray = field(init=False)  # (I + J_n^T J_n)^-1, J_n the neighbor columns
    # the x-update's last prox problem (its A depends on J and rho only), None
    # until the first one of a linearization
    prox: ProxProblem | None = field(init=False, default=None)

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
        self._take_linearization(self.J, self.r, self.x_star)
        # the round state shares one buffer and the updates write it in place;
        # at round 0 everything is zero, the copies too (xhat starts at 0)
        m, k, d = self.rows[-1], len(self.neighbors), self.n_i
        state = np.zeros(m + d + 5 * k * d)
        self.lam_rows, self.x_bar = state[:m], state[m:m + d]
        (self.mu, self.w, self.nbr_xbar, self.nbr_mu,
         self.nbr_copy_of_me) = state[m + d:].reshape(5, k, d)

    def _take_linearization(self, J, r, x_star) -> None:
        """Store (J, r) and a copy of x*, check their shapes, form H^-1 and
        drop the prox problem of the previous linearization."""
        self.x_star = np.array(x_star, dtype=float)
        self.J = np.asarray(J, dtype=float)
        self.r = np.asarray(r, dtype=float)
        m, k, d = self.rows[-1], len(self.neighbors), self.n_i
        if self.J.shape != (m, (1 + k) * d) or self.r.shape != (m,):
            raise ValueError(f"J {self.J.shape} and r {self.r.shape} do not fit "
                             f"{m} rows and {k} neighbors")
        Jn = self.J[:, d:]
        H = Jn.T @ Jn
        H.flat[::H.shape[0] + 1] += 1.0  # H = I + J_n^T J_n
        self.H_inv = np.linalg.inv(H)
        self.prox = None

    def relinearize(self, J, r, x_star) -> None:
        """Take the linearization at a new point, keeping duals and copies
        warm: x* has absorbed xbar, which resets xhat to zero, so every copy
        is shifted by the absorbed amount to stay consistent."""
        self.w -= self.nbr_xbar
        self.nbr_copy_of_me -= self.x_bar
        self.x_bar[:] = 0.0
        self._take_linearization(J, r, x_star)

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

    def _adjusted_violations(self) -> tuple[np.ndarray, np.ndarray]:
        """(c_i + lam, d_i + mu) at xhat_i = -x*[i]: the x-update's data."""
        xhat = -self.x_star
        return self._c(xhat) + self.lam_rows, self._d(xhat) + self.mu

    def _problem(self, e, f) -> ProxProblem:
        """The prox problem for (e, f); A is built and checked on the first
        call of a linearization and shared by the later ones."""
        sq = np.sqrt(self.rho)
        b = -sq * np.concatenate([e, f.ravel()])
        if self.prox is None:
            # an isolated agent gets a 0-row A: only the norm term remains
            eyes = np.tile(np.eye(self.n_i), (len(self.neighbors), 1))
            self.prox = ProxProblem(sq * np.vstack([self.J[:, :self.n_i], eyes]), b)
        else:
            self.prox = self.prox.with_rhs(b)
        return self.prox

    def _residual(self, e, f) -> float:
        v = self.J[:, :self.n_i].T @ e + f.sum(axis=0)
        return math.sqrt(v @ v)

    def assemble_local_problem(self) -> ProxProblem:
        """The subproblem in the variable v = x*[i] + xhat_i."""
        return self._problem(*self._adjusted_violations())

    def residual_norm(self) -> float:
        """Norm of the dual-adjusted aggregated violations; equals
        ||A_i^T b_i|| / rho, so the fast path fires iff this is <= 1/rho."""
        return self._residual(*self._adjusted_violations())

    def primal_update_x(self, tol: float = 1e-9) -> np.ndarray:
        e, f = self._adjusted_violations()
        self.fast_path = self._residual(e, f) <= 1.0 / self.rho
        if self.fast_path:
            np.negative(self.x_star, out=self.x_bar)
        else:
            sol = solve_prox(self._problem(e, f), tol=tol)
            np.subtract(sol.v_star, self.x_star, out=self.x_bar)
        return self.x_bar

    # ----- w-update ---------------------------------------------------

    def primal_update_w(self) -> np.ndarray:
        """Jointly minimize, over my copies w (all slots),

            ||c_i(xbar_i, w) + lam||^2 + sum_j ||xbar[j] - w[j] + mu_j^(i)||^2

        With J_n the neighbor columns of J, the normal equations are
        H w = xbar + mu - J_n^T (c_i(xbar_i, 0) + lam), with H = I + J_n^T J_n;
        the identity puts every eigenvalue of H at 1 or above, so H is
        invertible, and its inverse, formed once per linearization, gives w
        as one product.
        """
        if not self.neighbors:
            return self.w
        const = self.J[:, :self.n_i] @ self.x_bar - self.r + self.lam_rows
        rhs = (self.nbr_xbar + self.nbr_mu).ravel() - self.J[:, self.n_i:].T @ const
        self.w[:] = (self.H_inv @ rhs).reshape(self.w.shape)
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
