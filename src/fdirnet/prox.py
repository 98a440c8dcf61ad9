"""Minimization of f(v) = ||v|| + 1/2 ||A v - b||^2.

The minimizer splits into two cases:

  * ||A^T b|| <= 1  ->  v* = 0 (checked in closed form, no iterations), or
  * ||A^T b|| > 1   ->  v* != 0 and satisfies A^T A v* + v*/||v*|| = A^T b.

Two solvers handle the second case:

  * ``solve_exact`` (what the agents run) writes v = s (s G + I)^-1 g with
    G = A^T A, g = A^T b and s = ||v||. One eigendecomposition G = Q L Q^T
    turns this into the secular equation h(s) = ||(s L + I)^-1 Q^T g|| = 1
    in the scalar s, solved by safeguarded Newton steps (More & Sorensen
    1983). Its stationarity residual is exactly |h(s) - 1|. A problem keeps
    the eigendecomposition once formed, and ``with_rhs`` hands it on to
    problems with the same A, which then cost a few vector operations.
  * ``solve_prox``, the reference, runs Nesterov's accelerated gradient
    method on the region ||v|| >= r_floor where f is smooth, the minimizer
    being bounded away from the non-differentiable origin.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConvergenceFailure

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITERS = 50_000
# Newton and bisection steps of solve_exact; bisection alone halves the
# bracket each step, so this is far beyond what any solve takes
DEFAULT_EXACT_STEPS = 60


class ProxCase(enum.Enum):
    ZERO = "zero"
    INTERIOR = "interior"


def _checked_rhs(A: np.ndarray, b) -> np.ndarray:
    """b as a float vector, checked against the already checked A."""
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ValueError(f"shape mismatch: A {A.shape}, b {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("non-finite entries")
    return b


@dataclass(frozen=True)
class ProxProblem:
    A: np.ndarray
    b: np.ndarray
    # (eigenvalues clipped at 0, eigenvectors) of A^T A, formed on first use
    _gram_eig: tuple | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        if A.ndim != 2:
            raise ValueError(f"shape mismatch: A {A.shape}")
        if not np.all(np.isfinite(A)):
            raise ValueError("non-finite entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", _checked_rhs(A, self.b))

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def with_rhs(self, b) -> ProxProblem:
        """The problem with this A and a new b. Only b is checked; A and its
        Gram eigendecomposition, if formed, are shared, not copied."""
        p = object.__new__(ProxProblem)
        object.__setattr__(p, "A", self.A)
        object.__setattr__(p, "b", _checked_rhs(self.A, b))
        object.__setattr__(p, "_gram_eig", self._gram_eig)
        return p

    def gram_eig(self) -> tuple[np.ndarray, np.ndarray]:
        """(lam, Q) with A^T A = Q diag(lam) Q^T, formed on the first call and
        kept; problems made from this one by ``with_rhs`` afterwards share it."""
        if self._gram_eig is None:
            lam, Q = np.linalg.eigh(self.A.T @ self.A)
            # round-off can leave a null eigenvalue negative
            object.__setattr__(self, "_gram_eig", (np.maximum(lam, 0.0), Q))
        return self._gram_eig


@dataclass
class ProxSolution:
    v_star: np.ndarray
    case: ProxCase
    stationarity_residual: float
    iterations: int
    # per-iteration stationarity residuals, only filled when requested
    history: list[float] = field(default_factory=list, repr=False)


def objective(p: ProxProblem, v) -> float:
    v = np.asarray(v, dtype=float)
    return float(np.linalg.norm(v) + 0.5 * np.linalg.norm(p.A @ v - p.b) ** 2)


def zero_test(p: ProxProblem) -> bool:
    """True iff v* = 0, i.e. ||A^T b|| <= 1."""
    return float(np.linalg.norm(p.A.T @ p.b)) <= 1.0


def stationarity_residual(p: ProxProblem, v) -> float:
    """||A^T A v + v/||v|| - A^T b||; undefined (raises) at v = 0."""
    v = np.asarray(v, dtype=float)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise ValueError("stationarity expression undefined at v = 0")
    return float(np.linalg.norm(p.A.T @ (p.A @ v) + v / nv - p.A.T @ p.b))


def _smooth_setup(p: ProxProblem):
    """Gram matrix, gradient target g = A^T b, Lipschitz bound, norm floor."""
    gram = p.A.T @ p.A
    g = p.A.T @ p.b
    ng = float(np.linalg.norm(g))
    lmax = float(np.linalg.eigvalsh(gram)[-1])
    # stationarity implies ||v*|| >= (||g|| - 1)/lmax; stay at half that
    r_floor = (ng - 1.0) / (2.0 * lmax)
    L = lmax + 1.0 / r_floor
    return gram, g, ng, lmax, r_floor, L


def _grad(gram, g, v):
    nv = np.linalg.norm(v)
    return gram @ v + v / nv - g


def solve_prox(
    p: ProxProblem,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    accelerated: bool = True,
    record_history: bool = False,
) -> ProxSolution:
    """Global minimizer of f via the case split.

    The interior case runs (accelerated) gradient descent with step 1/L on
    the region ||v|| >= r_floor, where L bounds the Hessian. ``accelerated=
    False`` runs plain gradient descent with the same step, for comparison.
    Tracks the best-objective iterate; raises ConvergenceFailure (carrying
    the best iterate) if the budget runs out before the stationarity
    residual reaches tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if zero_test(p):
        return ProxSolution(np.zeros(p.n), ProxCase.ZERO, 0.0, 0)

    gram, g, ng, lmax, r_floor, L = _smooth_setup(p)
    step = 1.0 / L

    # exact minimizer when A^T A is proportional to the identity; always
    # nonzero and inside the differentiable region
    v = (1.0 - 1.0 / ng) * g / lmax
    v_prev = v.copy()
    best_v = v.copy()
    best_res = float(np.linalg.norm(_grad(gram, g, v)))
    t_mom = 1.0
    history: list[float] = []

    for it in range(1, max_iters + 1):
        if accelerated:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
            y = v + ((t_mom - 1.0) / t_next) * (v - v_prev)
            t_mom = t_next
        else:
            y = v
        ny = np.linalg.norm(y)
        if ny < r_floor:
            y = y * (r_floor / ny) if ny > 0 else best_v.copy()
        v_new = y - step * _grad(gram, g, y)
        nv = np.linalg.norm(v_new)
        if nv < r_floor:
            v_new = v_new * (r_floor / nv) if nv > 0 else y.copy()
        # gradient restart: momentum pointing uphill resets the schedule
        if accelerated and np.dot(y - v_new, v_new - v) > 0.0:
            t_mom = 1.0
        v_prev, v = v, v_new

        res = float(np.linalg.norm(_grad(gram, g, v)))
        if res < best_res:
            best_res = res
            best_v = v.copy()
        if record_history:
            history.append(best_res)
        if best_res <= tol:
            return ProxSolution(best_v, ProxCase.INTERIOR, best_res, it, history)

    raise ConvergenceFailure(
        f"prox solve did not reach tol={tol} in {max_iters} iterations",
        best=best_v,
        residual=stationarity_residual(p, best_v),
        iterations=max_iters,
    )


def solve_exact(p: ProxProblem, tol: float = DEFAULT_TOL,
                max_iters: int = DEFAULT_EXACT_STEPS) -> ProxSolution:
    """Global minimizer of f via the case split and the secular equation.

    h(s) falls monotonically from ||g|| at s = 0, and 1/h is concave in s,
    so Newton steps on 1/h - 1 from s0 = (||g|| - 1)/lambda_max, where
    h >= 1, climb to the root. Each step is kept inside the bracket
    [lo, hi] that every evaluation narrows, and a step leaving it is
    replaced by bisection. The loop stops once |h(s) - 1| <= tol, or after
    max_iters steps; it then returns the best point found with its
    directly computed stationarity residual, and never raises.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    g = p.A.T @ p.b
    ng = math.sqrt(g @ g)  # ||g||, as zero_test computes it
    if ng <= 1.0:
        return ProxSolution(np.zeros(p.n), ProxCase.ZERO, 0.0, 0)

    lam, Q = p.gram_eig()
    c = Q.T @ g
    # h(lo) >= ||g||/(1 + lo lambda_max) = 1; and ||v*|| <= f(v*) < f(0), so
    # the root lies below hi
    s = lo = (ng - 1.0) / lam[-1]
    hi = 0.5 * float(p.b @ p.b)
    best = (np.inf, s, c)
    steps = 0
    while True:
        q = c / (1.0 + s * lam)
        h = math.sqrt(q @ q)
        if abs(h - 1.0) < best[0]:
            best = (abs(h - 1.0), s, q)
        if best[0] <= tol or steps == max_iters:
            break
        steps += 1
        if h > 1.0:
            lo = s
        else:
            hi = s
        # -h h'(s), positive unless c has no weight on a nonzero eigenvalue
        slope = float(np.dot(q * q, lam / (1.0 + s * lam)))
        newton = s + h * h * (h - 1.0) / slope if slope > 0.0 else hi
        s = newton if lo < newton < hi else 0.5 * (lo + hi)

    gap, s, q = best
    v = Q @ (s * q)
    if gap > tol:
        gap = stationarity_residual(p, v)
    return ProxSolution(v, ProxCase.INTERIOR, gap, steps)
