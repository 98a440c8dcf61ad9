"""Centralized reference solvers, used only by the test suite.

Neither solver is distributed or fast; they exist to cross-check the
network solver on desk-scale instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .blocklin import BlockMat, BlockStructure, BlockVec
from .exceptions import ConvergenceFailure, InfeasibleError


@dataclass(frozen=True)
class LinearizedProblem:
    """Constraint R v = b_lin over the block-structured total error v."""

    R: BlockMat
    b_lin: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b_lin",
                           np.asarray(self.b_lin, dtype=float).copy())
        if self.b_lin.shape != (self.R.row_structure.total,):
            raise ValueError("b_lin length does not match the row structure")

    @property
    def block_structure(self) -> BlockStructure:
        return self.R.col_structure


def _shrink_blocks(v: np.ndarray, structure: BlockStructure,
                   thresh: float) -> np.ndarray:
    out = np.zeros_like(v)
    for i in range(structure.num_blocks):
        sl = structure.slice_of(i)
        nrm = np.linalg.norm(v[sl])
        if nrm > thresh:
            out[sl] = (1.0 - thresh / nrm) * v[sl]
    return out


def centralized_l21(p: LinearizedProblem, tol: float = 1e-10,
                    rho_o: float = 1.0,
                    max_iters: int = 100_000) -> BlockVec:
    """min ||v||_{2,1} s.t. R v = b_lin, by splitting.

    Alternates an exact affine projection onto the constraint (via a
    pseudo-inverse computed once) with blockwise shrinkage, plus a running
    dual; stops when the two copies agree to tol.
    """
    dense = p.R.to_dense()
    structure = p.block_structure
    n = structure.total

    pinv = np.linalg.pinv(dense)
    lstsq_res = np.linalg.norm(dense @ (pinv @ p.b_lin) - p.b_lin)
    if lstsq_res > 1e-8:
        raise InfeasibleError(
            f"b_lin is not in the range of R (residual {lstsq_res:.3e})"
        )

    def project(w):
        return w - pinv @ (dense @ w - p.b_lin)

    z = np.zeros(n)
    u = np.zeros(n)
    for _ in range(max_iters):
        v = project(z - u)
        z = _shrink_blocks(v + u, structure, 1.0 / rho_o)
        u = u + v - z
        if np.linalg.norm(v - z) <= tol:
            return BlockVec(structure, v)
    raise ConvergenceFailure(
        f"centralized l2,1 solve did not converge in {max_iters} iterations",
        best=BlockVec(structure, v),
        residual=float(np.linalg.norm(v - z)),
    )


def brute_force_support(p: LinearizedProblem, max_support: int,
                        residual_tol: float = 1e-8,
                        guard: int = 100_000):
    """Smallest block support explaining b_lin, by exhaustive enumeration.

    Returns (support: frozenset, v: BlockVec). Ties at the same cardinality
    go to the smaller ||v||. This is the combinatorial search the
    distributed solver avoids; keep instances small.
    """
    structure = p.block_structure
    k = structure.num_blocks
    total = sum(math.comb(k, s) for s in range(max_support + 1))
    if total > guard:
        raise ValueError(f"{total} subsets exceeds the enumeration guard {guard}")

    dense, at = p.R.to_dense(), structure.offsets
    for size in range(max_support + 1):
        best = None
        for subset in combinations(range(k), size):
            cols = np.array([c for i in subset for c in range(at[i], at[i + 1])], dtype=int)
            sub = dense[:, cols]  # the empty subset's least squares leave all of b_lin
            coef, *_ = np.linalg.lstsq(sub, p.b_lin, rcond=None)
            if np.linalg.norm(sub @ coef - p.b_lin) <= residual_tol:
                v = np.zeros(structure.total)
                v[cols] = coef
                nrm = np.linalg.norm(v)
                if best is None or nrm < best[1]:
                    best = (frozenset(subset), nrm, v)
        if best is not None:
            return best[0], BlockVec(structure, best[2])
    raise InfeasibleError(
        f"no support of size <= {max_support} explains b_lin to {residual_tol}"
    )
