"""Per-agent ADMM state and the round updates.

Each agent i owns its error increment block xhat[i] (reported through
xbar[i]), copies w[j] of each neighbor's block and scaled duals (dual /
rho, running sums of violations): one per row of its incident hyperedges
and one per pairwise consensus constraint.

An agent with m rows, k neighbors and blocks of d holds its state in one
segment of floats, declared once by ``FIELDS``: every field in order with
its shape. The rows are its incident edges' in ascending order
(``rows[e]:rows[e + 1]`` belong to ``incident[e]``); J's columns are d per
block, its own first; row s of a (k, d) field belongs to ``neighbors[s]``.
``RUNS`` are the spans the updates use as one vector: ``duals`` =
[lam_rows | mu], ``xw`` = [x_bar | w] (so ``J @ xw`` needs no
concatenation) and ``viol`` = [c | d]. The agent holds views of all but
lam_rows and mu (read from ``duals``) and c and d (from ``viol``). A
``Network`` carves every agent's segment from one arena by ``layout``; a
standalone agent allocates its own. All code writes the views in place
(``s.x_bar[:] = v``, never ``s.x_bar = v``). An agent reads its neighbors,
incident edges and row offsets on demand from a ``topology.Tables``, a
network's agents from the one ``build_tables`` made for it.

Each linearization writes x*, J and r into the segment: a network writes
every agent's at once, and a standalone agent's ``relinearize`` copies them
in, checking their shapes. Two operators are formed once for it: the
w-update's H^-1 = (I + J_n^T J_n)^-1 (a network inverts the ``grams`` of all
its agents with one neighbor count at once), and, on the first x-update
that misses the fast path, the eigendecomposition of the prox Gram
rho (J_s^T J_s + k I), d x d with J_s the own-block columns of J.

Each round quantity is computed once: the dual update evaluates c and d
at (xbar, w) into ``viol`` and adds them to the duals, and the round
statistics read them there. The x-update's data is ``viol + duals`` with c
and d at xhat = -x*, where a fast-path x-update leaves xbar; ``kept``
marks such a pair, and the w-update and ``relinearize`` clear it.

With r the linearized measurement residual and J the Jacobian at the
current linearization point, the local constraints are

    c_i(xhat_i, w) = J [xhat_i; w] - r             (one row per edge row)
    d_i^j(xhat_i)  = xhat_i - (neighbor j's copy of block i)

and the x-update minimizes

    ||x*[i] + xhat_i|| + rho/2 ( ||c_i + lam||^2 + sum_j ||d_i^j + mu[j]||^2 ),

a prox problem in v = x*[i] + xhat_i (``assemble_local_problem`` builds it)
with A_i stacking sqrt(rho) times J_s and sqrt(rho) I per neighbor, and
b_i = -sqrt(rho) ef, ef = [c + lam | d + mu]. Its solution needs only A^T A,
A^T b and b^T b. A^T b = -rho v with v = J_s^T (c + lam) + sum_j (d_j + mu_j),
and its closed-form zero test is the fast path: xbar[i] = -x*[i] whenever
||v|| is at most 1/rho. Otherwise ``prox.solve_secular`` solves it exactly
from the kept eigendecomposition of A^T A, g = -rho v and b^T b = rho ef.ef;
a solve stopped at its step cap appends the agent's id to ``capped``; a
problem whose solve would overflow (a huge rho) raises ``NumericalOverflow``.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .exceptions import NumericalOverflow

# The exact solver is bound under the name ``solve_prox``: benchmark
# tracing wraps ``agent.solve_prox`` by name to time and count the prox
# solves, so renaming this binding would detach those metrics.
from .prox import ProxProblem, gram_eigh, solve_secular as solve_prox
from .topology import Tables


class EdgeView(NamedTuple):
    """One incident edge's rows of the packed linearization (views)."""

    J: np.ndarray  # rows x (1 + k) d, columns [self | neighbors ascending]
    r: np.ndarray


# every field of the segment in order, with its shape over m rows, k
# neighbors and blocks of d (kd = k d, and J has n = (1 + k) d columns)
FIELDS = {"x_star": "d", "H_inv": "kd kd", "lam_rows": "m", "mu": "k d", "x_bar": "d",
          "w": "k d", "c": "m", "d": "k d", "nbr_xbar": "k d", "nbr_mu": "k d",
          "nbr_copy_of_me": "k d", "J": "m n", "r": "m"}
# runs of consecutive fields that the updates read and write as one vector
RUNS = {"duals": ("lam_rows", "mu"), "xw": ("x_bar", "w"), "viol": ("c", "d")}


def layout(m, k, d):
    """{name: (start, stop, shape)} of every field and run, and the segment
    size, for m rows, k neighbors and blocks of d; elementwise on arrays."""
    dims = {"m": m, "k": k, "d": d, "kd": k * d, "n": (1 + k) * d}
    at, end = {}, 0
    for name, shape in FIELDS.items():
        shape = tuple(dims[s] for s in shape.split())
        start, end = end, end + math.prod(shape)
        at[name] = start, end, shape
    for run, (first, last) in RUNS.items():
        at[run] = at[first][0], at[last][1], (at[last][1] - at[first][0],)
    return at, end


@functools.lru_cache(maxsize=256)  # layout costs more than the carving
def _held(m, k, d):
    """(name, start, stop, shape) of each view an agent holds, and the size."""
    at, size = layout(m, k, d)
    return tuple((name, *at[name]) for name in at if name in AgentState.__slots__), size


def grams(agents) -> np.ndarray:
    """H = I + J_n^T J_n (J_n the neighbor columns of J, H^-1 the w-update's) of
    agents with one neighbor count, stacked: products in place, then I once."""
    d, kd = agents[0].x_star.size, agents[0].w.size
    H = np.empty((len(agents), kd, kd))
    for a, h in zip(agents, H):
        Jn = a.J[:, d:]
        np.matmul(Jn.T, Jn, out=h)
    H.reshape(len(agents), -1)[:, ::kd + 1] += 1.0
    return H


class AgentState:
    """Agent i's state, views of its segment (see the module docstring).

    ``AgentState(...)`` is a standalone agent, whose linearization (J, r, x*)
    is checked and copied in; a ``Network`` builds its agents with
    ``on_segment`` and writes their linearizations itself. ``capped`` gets
    the agent's id for each prox solve stopped at its step cap (a network's
    agents share one, cleared per linearization); ``prox`` is the
    eigendecomposition of the prox Gram rho (J_s^T J_s + k I), once formed;
    ``kept`` says that viol holds c and d at xhat = -x*.
    """

    __slots__ = ("i", "rho", "tables", "capped", "x_star", "H_inv", "duals", "xw", "x_bar", "w",
                 "viol", "nbr_xbar", "nbr_mu", "nbr_copy_of_me", "J", "r", "prox", "fast_path",
                 "kept")
    # the views: x_star, the accumulated error estimate block x*[i]; H_inv =
    # (I + J_n^T J_n)^-1, J_n the neighbor columns of J; duals = [lam_rows |
    # mu], the scaled duals; xw = [x_bar | w], w my copy of each neighbor's
    # block; viol = [c | d]; received this round, one row per slot: nbr_xbar,
    # nbr_mu (mu_j^(i) from each j) and nbr_copy_of_me (w_j^(i) from each j);
    # J and r, the linearization (see the module docstring)
    # ascending, slot s belongs to neighbors[s]; ascending; each edge's row offsets
    neighbors = property(lambda self: self.tables.of(self.i)[0])
    incident = property(lambda self: self.tables.of(self.i)[1])
    rows = property(lambda self: self.tables.of(self.i)[2])
    # scaled edge dual per row and consensus dual per slot, views of duals
    lam_rows = property(lambda self: self.duals[:len(self.r)])
    mu = property(lambda self: self.duals[len(self.r):].reshape(self.w.shape))

    def __init__(self, i, rho, x_star, neighbors, incident, rows, J, r, buf=None):
        """``rows`` are the row offsets of each incident edge (len(incident) + 1);
        ``buf`` is a zeroed segment to live in, or None for a new one."""
        if len(rows) != len(incident) + 1:
            raise ValueError(f"{len(rows)} row offsets for {len(incident)} edges")
        nbrs, edges = np.array(neighbors, np.intp), np.array(incident, np.intp)
        tables = Tables(nbrs, np.array([0, len(nbrs)]), edges, np.array([0, len(edges)]),
                        np.diff(rows), first=i)
        self._carve(i, rho, tables, [], (rows[-1], len(neighbors), len(x_star)), buf)
        self._take_linearization(J, r, x_star)

    @classmethod
    def on_segment(cls, i, rho, tables, capped, mkd, buf):
        """Agent i of a network, with (m rows, k neighbors, blocks of d) = mkd,
        on its zeroed segment buf."""
        return cls.__new__(cls)._carve(i, rho, tables, capped, mkd, buf)

    def _carve(self, i, rho, tables, capped, mkd, buf) -> AgentState:
        if rho <= 0:
            raise ValueError("rho must be positive")
        self.i, self.rho, self.tables, self.capped = i, rho, tables, capped
        self.prox, self.fast_path, self.kept = None, False, False
        # at round 0 everything is zero, the copies too (xhat starts at 0)
        held, size = _held(*mkd)
        buf = np.zeros(size) if buf is None else buf
        if buf.shape != (size,):
            raise ValueError(f"a segment of {buf.shape} floats, not ({size},)")
        for name, lo, hi, shape in held:  # lam_rows, mu, c and d are read from runs
            v = buf[lo:hi]
            setattr(self, name, v.reshape(shape) if len(shape) > 1 else v)
        return self

    def _take_linearization(self, J, r, x_star) -> None:
        """Copy J, r and x* into the segment, checking their shapes, and form
        H^-1 in place."""
        shapes = np.shape(J), np.shape(r), np.shape(x_star)
        if shapes != (self.J.shape, self.r.shape, self.x_star.shape):
            raise ValueError(f"J {shapes[0]}, r {shapes[1]} and x* {shapes[2]} do not fit "
                             f"{self.J.shape}, {self.r.shape} and {self.x_star.shape}")
        self.J[:], self.r[:], self.x_star[:] = J, r, x_star
        self.H_inv[:] = np.linalg.inv(grams([self])[0])

    def shift(self) -> None:
        """Keep duals and copies warm for a new linearization: x* has absorbed
        xbar, which resets xhat to zero, so every copy is shifted by the
        absorbed amount to stay consistent. The prox Gram's eigendecomposition
        of the previous linearization is dropped."""
        self.w -= self.nbr_xbar
        self.nbr_copy_of_me -= self.x_bar
        self.x_bar[:] = 0.0
        self.kept = self.fast_path = False  # xbar is no longer -x*
        self.prox = None

    def relinearize(self, J, r, x_star) -> None:
        """Take the linearization (J, r, x*) at a new point (see ``shift``)."""
        self.shift()
        self._take_linearization(J, r, x_star)

    @property
    def n_i(self) -> int:
        return len(self.x_star)

    # ----- per-edge views, built on demand (not used by the updates) ------

    def _edge_rows(self, l: int) -> slice:
        _, incident, rows = self.tables.of(self.i)
        e = incident.index(l)
        return slice(rows[e], rows[e + 1])

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
        return self._at(xhat_i)[len(self.r):].reshape(self.w.shape)[self.neighbors.index(j)]

    # ----- x-update ---------------------------------------------------

    def _adjusted_violations(self) -> np.ndarray:
        """[c_i + lam | d_i + mu] at xhat_i = -x*[i]: the x-update's data."""
        return self._at(-self.x_star) + self.duals

    def _residual(self, ef) -> np.ndarray:
        """v = J_s^T (c + lam) + sum_j (d_j + mu_j) for ef = [c + lam | d + mu]:
        A_i^T b_i = -rho v."""
        m = len(self.r)
        return self.J[:, :len(self.x_star)].T @ ef[:m] \
            + np.add.reduce(ef[m:].reshape(self.w.shape), axis=0)

    def assemble_local_problem(self) -> ProxProblem:
        """The subproblem in the variable v = x*[i] + xhat_i, with its matrix
        A_i (an isolated agent's has no identity rows)."""
        sq = np.sqrt(self.rho)
        eyes = np.tile(np.eye(self.n_i), (len(self.w), 1))
        return ProxProblem(sq * np.vstack([self.J[:, :self.n_i], eyes]),
                           -sq * self._adjusted_violations())

    def residual_norm(self) -> float:
        """Norm of the dual-adjusted aggregated violations; equals
        ||A_i^T b_i|| / rho, so the fast path fires iff this is <= 1/rho."""
        v = self._residual(self._adjusted_violations())
        return math.sqrt(v @ v)

    def primal_update_x(self, tol: float = 1e-9) -> np.ndarray:
        if not self.kept:  # c and d at xbar = -x*, which the fast path keeps
            np.negative(self.x_star, out=self.x_bar)
            self._violations(self.xw, self.viol)
        ef = self.viol + self.duals
        v = self._residual(ef)
        res = math.sqrt(v @ v)
        self.fast_path = res <= 1.0 / self.rho
        if not self.fast_path:
            # ||g|| = rho res; the solve squares it, overflowing at 1.3e154
            if self.rho * res > 1e154:
                raise NumericalOverflow(f"agent {self.i}: the x-update's prox problem leaves "
                                        f"the floating-point range at rho = {self.rho:g}")
            if self.prox is None:  # A^T A = rho (J_s^T J_s + k I)
                Js = self.J[:, :self.n_i]
                self.prox = gram_eigh(self.rho * (Js.T @ Js + len(self.w) * np.eye(self.n_i)))
            sol = solve_prox(self.prox, -self.rho * v, self.rho * (ef @ ef), tol=tol)
            np.subtract(sol.v_star, self.x_star, out=self.x_bar)
            if sol.stationarity_residual > tol:  # stopped at its step cap
                self.capped.append(self.i)
        return self.x_bar

    # ----- w-update ---------------------------------------------------

    def primal_update_w(self) -> np.ndarray:
        """Jointly minimize, over my copies w (all slots),

            ||c_i(xbar_i, w) + lam||^2 + sum_j ||xbar[j] - w[j] + mu_j^(i)||^2

        With J_n the neighbor columns of J, the normal equations are H w =
        xbar + mu - J_n^T (c_i(xbar_i, 0) + lam), H = I + J_n^T J_n, whose
        eigenvalues are all at least 1: w is one product with H^-1.
        """
        self.kept = False
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
