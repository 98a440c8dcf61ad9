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
    ``J`` (rows x (1 + k) d), ``r``, ``lam_rows`` and c share this order.
  * columns of ``J``: d wide per block, own block first, then one slot per
    neighbor in ascending id order.
  * slots: ``mu``, ``w``, ``nbr_xbar``, ``nbr_mu`` and ``nbr_copy_of_me``
    are (k x d), row s belonging to neighbor ``neighbors[s]``.

Every array views one segment of floats per agent, laid out by
``segment_ends`` as [x* | H^-1 | lam_rows, mu | x_bar, w | c, d | receive
slots | J | r], with ``duals`` = [lam_rows | mu], ``xw`` = [x_bar | w] (so
``J @ xw`` needs no concatenation) and ``viol`` = [c | d]. A ``Network``
carves the segments of all its agents from one arena; a standalone agent
allocates its own. All code writes these views in place
(``s.x_bar[:] = v``, never ``s.x_bar = v``).

``x_star``, ``J`` and ``r`` change once per linearization, and the agent
copies each one into its segment itself (``relinearize``), checking its
shape. Two operators are fixed for a whole linearization, so each is
formed once for it and dropped at the next one:

  * the w-update's inverse H^-1 = (I + J_n^T J_n)^-1, formed when the
    linearization is taken, so that each w-update is one matrix-vector
    product;
  * the x-update's prox matrix A with the eigendecomposition of A^T A,
    formed on the first x-update that misses the fast path; later ones
    build and check only the new right-hand side. An agent that always
    takes the fast path never forms it.

Each round quantity is computed once: the dual update evaluates c and d
at (xbar, w) into ``viol``, adds them to the duals, and the round
statistics (here or the network's) read them. The x-update's data is
``viol + duals`` with c and d at xhat = -x*, which is where a fast-path
x-update leaves xbar; ``kept`` marks such a pair, and the w-update (a new
w) and ``relinearize`` clear it.

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
(``prox.solve_exact``); ``prox_capped`` counts, per linearization, the
solves that stopped at their step cap short of ``tol``.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from itertools import accumulate
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


def segment_ends(m, k, d):
    """Where x*, H^-1, duals, xw, viol, the receive slots, J and r end in the
    segment of an agent with m rows, k neighbors and blocks of d; the last
    end is the segment's length. Elementwise on arrays of m and k."""
    kd = k * d
    return tuple(accumulate((d, kd * kd, m + kd, d + kd, m + kd, 3 * kd, m * (d + kd), m)))


@dataclass(slots=True, eq=False)
class AgentState:
    i: int
    rho: float
    x_star: np.ndarray  # accumulated error estimate block x*[i]
    neighbors: tuple[int, ...]  # ascending; slot s belongs to neighbors[s]
    incident: tuple[int, ...]  # ascending incident edge indices
    rows: np.ndarray  # row offsets of each incident edge (intp), len(incident) + 1
    J: np.ndarray  # local Jacobian, see the module docstring
    r: np.ndarray  # linearized residual per row
    buf: InitVar[np.ndarray | None] = None  # a zeroed segment to live in, or a new one
    H_inv: np.ndarray = field(init=False)  # (I + J_n^T J_n)^-1, J_n the neighbor columns
    # the x-update's last prox problem (its A depends on J and rho only), None
    # until the first one of a linearization
    prox: ProxProblem | None = field(init=False, default=None)
    prox_capped: int = field(init=False, default=0)  # this linearization's capped solves

    duals: np.ndarray = field(init=False)  # [lam_rows | mu], scaled duals
    # scaled edge dual per row and consensus dual per slot, views of duals
    lam_rows = property(lambda self: self.duals[:len(self.r)])
    mu = property(lambda self: self.duals[len(self.r):].reshape(self.w.shape))
    xw: np.ndarray = field(init=False)  # [x_bar | w]
    x_bar: np.ndarray = field(init=False)
    w: np.ndarray = field(init=False)  # my copy of each neighbor's block
    viol: np.ndarray = field(init=False)  # [c | d], see the module docstring

    # received this round, one row per slot
    nbr_xbar: np.ndarray = field(init=False)
    nbr_mu: np.ndarray = field(init=False)  # mu_j^(i) from each j
    nbr_copy_of_me: np.ndarray = field(init=False)  # w_j^(i) from each j

    fast_path: bool = field(init=False, default=False)
    kept: bool = field(init=False, default=False)  # viol holds c, d at xhat = -x*

    def __post_init__(self, buf):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        m, k, d = self.rows[-1], len(self.neighbors), len(self.x_star)
        # an index array once, not on every reduction over the edges' rows
        self.rows = np.asarray(self.rows, dtype=np.intp)
        # the segment of the module docstring; at round 0 everything is zero,
        # the copies too (xhat starts at 0)
        h, u, x, v, s, j, e = segment_ends(m, k, d)[1:]
        buf = np.zeros(e) if buf is None else buf
        if buf.shape != (e,):
            raise ValueError(f"a segment of {buf.shape} floats, not ({e},)")
        kd = k * d
        self.H_inv = buf[d:h].reshape(kd, kd)
        self.duals, self.xw, self.viol = buf[h:u], buf[u:x], buf[x:v]
        self.x_bar, self.w = buf[u:u + d], buf[u + d:x].reshape(k, d)
        self.nbr_xbar, self.nbr_mu, self.nbr_copy_of_me = buf[v:s].reshape(3, k, d)
        taken = self.J, self.r, self.x_star
        self.J, self.r, self.x_star = buf[s:j].reshape(m, d + kd), buf[j:e], buf[:d]
        self._take_linearization(*taken)

    def _take_linearization(self, J, r, x_star) -> None:
        """Copy J, r and x* into the segment, checking their shapes, form
        H^-1 in place and drop the prox problem of the previous linearization."""
        shapes = np.shape(J), np.shape(r), np.shape(x_star)
        if shapes != (self.J.shape, self.r.shape, self.x_star.shape):
            m, k = len(self.r), len(self.neighbors)
            raise ValueError(f"J {shapes[0]}, r {shapes[1]} and x* {shapes[2]} do not fit "
                             f"{m} rows, {k} neighbors and blocks of {self.n_i}")
        self.J[:], self.r[:], self.x_star[:] = J, r, x_star
        Jn = self.J[:, self.n_i:]
        H = Jn.T @ Jn
        H.flat[::H.shape[0] + 1] += 1.0  # H = I + J_n^T J_n
        self.H_inv[:] = np.linalg.inv(H)
        self.prox = None

    def relinearize(self, J, r, x_star) -> None:
        """Take the linearization at a new point, keeping duals and copies
        warm: x* has absorbed xbar, which resets xhat to zero, so every copy
        is shifted by the absorbed amount to stay consistent."""
        self.w -= self.nbr_xbar
        self.nbr_copy_of_me -= self.x_bar
        self.x_bar[:] = 0.0
        self.kept = self.fast_path = False  # xbar is no longer -x*
        self.prox_capped = 0
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

    def _violations(self, xw, out) -> np.ndarray:
        """[c_i | d_i] at (xhat_i, w) = (xw[:d], xw[d:]), written into out."""
        m = len(self.r)
        c, d = out[:m], out[m:].reshape(self.w.shape)
        np.subtract(np.matmul(self.J, xw, out=c), self.r, out=c)
        np.subtract(xw[:len(self.x_star)], self.nbr_copy_of_me, out=d)
        return out

    def _at(self, xhat_i) -> np.ndarray:
        """[c_i | d_i] at (xhat_i, w), in a new array."""
        xw = np.concatenate([np.asarray(xhat_i, dtype=float), self.w.ravel()])
        return self._violations(xw, np.empty(len(self.viol)))

    def constraint_c(self, l: int, xhat_i) -> np.ndarray:
        return self._at(xhat_i)[self._edge_rows(l)]

    def constraint_d(self, j: int, xhat_i) -> np.ndarray:
        return self._at(xhat_i)[self.rows[-1]:].reshape(self.w.shape)[self.neighbors.index(j)]

    # ----- x-update ---------------------------------------------------

    def _adjusted_violations(self) -> np.ndarray:
        """[c_i + lam | d_i + mu] at xhat_i = -x*[i]: the x-update's data."""
        return self._at(-self.x_star) + self.duals

    def _problem(self, ef) -> ProxProblem:
        """The prox problem for ef = [c + lam | d + mu]; A is built and
        checked on the first call of a linearization and shared by the later
        ones."""
        sq = np.sqrt(self.rho)
        b = -sq * ef
        if self.prox is None:
            # an isolated agent gets a 0-row A: only the norm term remains
            eyes = np.tile(np.eye(self.n_i), (len(self.neighbors), 1))
            self.prox = ProxProblem(sq * np.vstack([self.J[:, :self.n_i], eyes]), b)
        else:
            self.prox = self.prox.with_rhs(b)
        return self.prox

    def _residual(self, ef) -> float:
        m = len(self.r)
        v = self.J[:, :len(self.x_star)].T @ ef[:m] \
            + np.add.reduce(ef[m:].reshape(self.w.shape), axis=0)
        return math.sqrt(v @ v)

    def assemble_local_problem(self) -> ProxProblem:
        """The subproblem in the variable v = x*[i] + xhat_i."""
        return self._problem(self._adjusted_violations())

    def residual_norm(self) -> float:
        """Norm of the dual-adjusted aggregated violations; equals
        ||A_i^T b_i|| / rho, so the fast path fires iff this is <= 1/rho."""
        return self._residual(self._adjusted_violations())

    def primal_update_x(self, tol: float = 1e-9) -> np.ndarray:
        if not self.kept:  # c and d at xbar = -x*, which the fast path keeps
            np.negative(self.x_star, out=self.x_bar)
            self._violations(self.xw, self.viol)
        ef = self.viol + self.duals
        self.fast_path = self._residual(ef) <= 1.0 / self.rho
        if not self.fast_path:
            sol = solve_prox(self._problem(ef), tol=tol)
            np.subtract(sol.v_star, self.x_star, out=self.x_bar)
            if sol.stationarity_residual > tol:  # stopped at its step cap
                self.prox_capped += 1
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
        self.kept = False
        if not self.neighbors:
            return self.w
        d = len(self.x_star)
        const = self.J[:, :d] @ self.x_bar - self.r + self.duals[:len(self.r)]
        rhs = (self.nbr_xbar + self.nbr_mu).ravel() - self.J[:, d:].T @ const
        np.matmul(self.H_inv, rhs, out=self.xw[d:])
        return self.w

    # ----- dual update ------------------------------------------------

    def dual_update(self) -> None:
        """Running-sum update of the scaled duals with the violations at
        (xbar, w), kept in ``viol`` (see the module docstring)."""
        self.duals += self._violations(self.xw, self.viol)
        self.kept = self.fast_path

    # ----- diagnostics ------------------------------------------------

    def violation_norms(self) -> tuple[float, float]:
        """(max ||c||, max ||d||) at the (xbar, w) of the last dual update."""
        m = len(self.r)
        c, d = self.viol[:m], self.viol[m:].reshape(self.w.shape)
        # ufuncs, not the ndarray methods, which add a Python-level wrapper
        max_c = np.maximum.reduce(np.add.reduceat(c * c, self.rows[:-1])) if m else 0.0
        max_d = np.maximum.reduce(np.add.reduce(d * d, axis=1)) if len(d) else 0.0
        return math.sqrt(max_c), math.sqrt(max_d)
