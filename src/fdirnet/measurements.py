"""Inter-agent measurement models, the stacked map, its block Jacobian,
and search-space / rank diagnostics.

Agent states are positions in R^d (d = 2 or 3). Supported models:

    displacement     p_i - p_j                       (dim d,  arity 2)
    distance         ||p_i - p_j||                   (dim 1,  arity 2)
    bearing          (p_i - p_j) / ||p_i - p_j||     (dim d,  arity 2)
    tdoa             ||p_i - p_j|| - ||p_i - p_k||   (dim 1,  arity 3)
    subtended_angle  arccos(u_ij . u_ik)             (dim 1,  arity 3)

Separations below EPS_DOM are treated as coincident positions and rejected,
as the models and/or their derivatives degenerate there.

Each model is defined once, in ``_model``: its value and its Jacobian come
from the same separations, evaluated for all edges of one kind at a time.
``eval_stack`` and ``jacobian_stack`` make one such call per kind present;
``eval_edge`` and ``jacobian_edge`` are the same call on a one-edge batch.
``jacobian_stack`` also returns that call's values, so a linearization
evaluates the model once; its dense form is filled on read, one scatter per kind.

``MeasurementStack`` codes each edge's kind by its index in ``KINDS`` and
checks every member count at once against the hypergraph's ``arity``; an
error names the lowest offending edge. The row offsets come from one cumsum
over the codes' row counts, the per-kind groups (edges, member array, rows)
from one stable order of the edges by kind and the flat arrays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .blocklin import BlockMat, BlockStructure, BlockVec
from .exceptions import DomainViolation
from .topology import Hypergraph

# domain floor for separation norms, in state units
EPS_DOM = 1e-9


class MeasurementKind(enum.Enum):
    DISPLACEMENT = "displacement"
    DISTANCE = "distance"
    BEARING = "bearing"
    TDOA = "tdoa"
    SUBTENDED_ANGLE = "subtended_angle"

    @property
    def arity(self) -> int:
        return 3 if self in (MeasurementKind.TDOA, MeasurementKind.SUBTENDED_ANGLE) else 2

    def output_dim(self, d: int) -> int:
        if self in (MeasurementKind.DISPLACEMENT, MeasurementKind.BEARING):
            return d
        return 1


KINDS = tuple(MeasurementKind)
_CODES = {id(k): c for c, k in enumerate(KINDS)}  # an enum member is itself only; its hash is slow


def _model(kind: MeasurementKind, P: np.ndarray, jac: bool = False, edges=None):
    """One model at the member states P (E x arity x d) of E edges: the values
    (E x m) and, if jac, the Jacobian blocks (E x arity x m x d), both from the
    same separations. A DomainViolation names the first offending row's entry
    of ``edges``, or no edge when ``edges`` is None."""
    E, _, d = P.shape
    if kind is MeasurementKind.DISPLACEMENT:
        J = np.tile([np.eye(d), -np.eye(d)], (E, 1, 1, 1)) if jac else None
        return P[:, 0] - P[:, 1], J
    diff = P[:, :1] - P[:, 1:]  # p_i - p_j [, p_i - p_k]
    dist = np.linalg.norm(diff, axis=2, keepdims=True)
    u = diff / np.maximum(dist, EPS_DOM)  # the floor only keeps rejected rows finite
    uj, uk, dj, dk = u[:, :1], u[:, -1:], dist[:, :1], dist[:, -1:]  # E x 1 x (d or 1)
    bad = coincident = dist.min(axis=(1, 2)) < EPS_DOM
    if kind is MeasurementKind.SUBTENDED_ANGLE:
        c = np.sum(uj * uk, axis=2, keepdims=True)  # cosine of the subtended angle
        if jac:  # the arccos derivative is singular at c = +-1
            bad = coincident | (np.abs(c.ravel()) >= 1.0 - EPS_DOM)
    if bad.any():
        e = int(np.argmax(bad))
        raise DomainViolation("coincident positions" if coincident[e] else
                              "subtended angle at arccos derivative singularity",
                              edge=None if edges is None else int(edges[e]))
    if kind is MeasurementKind.DISTANCE:
        y = dj
    elif kind is MeasurementKind.BEARING:
        y = uj
    elif kind is MeasurementKind.TDOA:
        y = dj - dk
    else:
        y = np.arccos(np.clip(c, -1.0, 1.0))
    if not jac:
        return y.reshape(E, -1), None
    if kind is MeasurementKind.DISTANCE:
        J = [uj, -uj]
    elif kind is MeasurementKind.BEARING:
        proj = (np.eye(d) - np.swapaxes(uj, 1, 2) * uj) / dj
        J = [proj, -proj]
    elif kind is MeasurementKind.TDOA:
        J = [uj - uk, -uj, uk]
    else:
        # dc/dp_j = -(u_ik - c u_ij) / d_ij, likewise for p_k; theta = arccos(c)
        a, b = (uk - c * uj) / dj, (uj - c * uk) / dk
        scale = -1.0 / np.sqrt(1.0 - c * c)
        J = [scale * (a + b), -scale * a, -scale * b]
    return y.reshape(E, -1), np.stack(J, axis=1)


def _one_edge(kind: MeasurementKind, d: int, states, jac: bool):
    """_model on a one-edge batch, after checking the count and shapes of
    its states."""
    states = [np.asarray(s, dtype=float) for s in states]
    if len(states) != kind.arity:
        raise ValueError(f"{kind.value} takes {kind.arity} states, got {len(states)}")
    if any(s.shape != (d,) for s in states):
        raise ValueError(f"states must have length {d}")
    return _model(kind, np.array(states)[None], jac)


def eval_edge(kind: MeasurementKind, d: int, states) -> np.ndarray:
    """Evaluate one measurement model at the given ordered member states."""
    return _one_edge(kind, d, states, jac=False)[0][0]


def jacobian_edge(kind: MeasurementKind, d: int, states) -> list[np.ndarray]:
    """Analytic Jacobian blocks of one model, ordered like the member states."""
    return list(_one_edge(kind, d, states, jac=True)[1][0])


@dataclass(frozen=True)
class MeasurementStack:
    """The stacked measurement map over a tagged hypergraph.

    Edge l's kind comes from the hypergraph's tag list; edge members are
    ordered (role order i, j[, k] matters for tdoa and subtended angle).
    ``sigmas`` holds each edge's additive Gaussian noise std dev (None for a
    noiseless map); it is part of the model, so the solver may read it.
    """

    graph: Hypergraph
    d: int
    sigmas: tuple[float, ...] | None = None

    codes: np.ndarray = field(init=False, repr=False, compare=False)  # index in KINDS per edge

    def __post_init__(self):
        g = self.graph
        if g.kinds is None:
            raise ValueError("hypergraph must carry measurement kinds")
        try:
            codes = np.fromiter(map(_CODES.__getitem__, map(id, g.kinds)), np.intp, g.num_edges)
        except KeyError:
            l = [not isinstance(k, MeasurementKind) for k in g.kinds].index(True)
            raise TypeError(f"edge {l} kind must be a MeasurementKind") from None
        if len(bad := np.flatnonzero(np.array([k.arity for k in KINDS])[codes] != g.arity)):
            kind = g.kinds[bad[0]]
            raise ValueError(f"edge {bad[0]}: {kind.value} needs {kind.arity} members, "
                             f"got {g.arity[bad[0]]}")
        vars(self)["codes"] = codes
        if self.sigmas is not None:
            s = np.asarray(self.sigmas, dtype=float)
            if s.shape != (self.graph.num_edges,) or not np.all((s >= 0) & (s < np.inf)):
                raise ValueError("sigmas: needs one finite non-negative value per edge")

    @cached_property
    def noise_level(self) -> float:
        """s = sqrt(sum_l sigma_l^2 m_l), the expected norm of the noise in y
        (m_l is edge l's row count); 0 for a noiseless map."""
        if self.sigmas is None:
            return 0.0
        return float(np.sqrt(np.square(self.sigmas) @ self.row_structure.lengths))

    @cached_property
    def _row_ptr(self) -> np.ndarray:
        """Edge l's rows are _row_ptr[l]:_row_ptr[l + 1], from one cumsum."""
        return np.cumsum(np.append(0, np.array([k.output_dim(self.d) for k in KINDS])[self.codes]))

    @cached_property
    def row_structure(self) -> BlockStructure:
        rows = BlockStructure(np.diff(self._row_ptr).tolist())
        vars(rows)["offsets"] = tuple(self._row_ptr.tolist())  # its cached offsets, at load
        return rows

    @cached_property
    def col_structure(self) -> BlockStructure:
        return BlockStructure((self.d,) * self.graph.num_vertices)

    @cached_property
    def _groups(self) -> tuple:
        """Per kind, in order of first appearance: (kind, edges, members
        (E x arity), rows (E x m)), cut from one stable order of edges."""
        g = self.graph
        _, first, inverse, counts = np.unique(self.codes, return_index=True, return_inverse=True,
                                              return_counts=True)
        order = np.argsort(first[inverse], kind="stable")  # by kind, kinds by first edge
        starts = np.cumsum(g.arity) - g.arity  # of each edge's members
        groups, lo = [], 0  # the first edge of the next kind
        for l, count in sorted(zip(first.tolist(), counts.tolist())):
            kind, ls = KINDS[self.codes[l]], order[lo:lo + count]
            groups.append((kind, ls, g.members[starts[ls, None] + np.arange(kind.arity)],
                           self._row_ptr[ls, None] + np.arange(kind.output_dim(self.d))))
            lo += count
        return tuple(groups)


def _eval_kinds(stack: MeasurementStack, p: BlockVec, jac: bool) -> tuple:
    """(Phi(p), per kind its blocks or None); errors name the lowest edge,
    and a value or block that overflowed to a non-finite entry is one."""
    states = p.data.reshape(-1, stack.d)
    out, blocks, errors = BlockVec(stack.row_structure), [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for kind, ls, members, rows in stack._groups:
            try:
                y, J = _model(kind, states[members], jac, edges=ls)
            except DomainViolation as exc:
                errors.append(exc)
                continue
            bad = ~np.isfinite(y).all(axis=1)
            if jac:
                bad |= ~np.isfinite(J).all(axis=(1, 2, 3))
            if bad.any():
                errors.append(DomainViolation("the measurement model is not finite",
                                              edge=int(ls[bad.argmax()])))
            out.data[rows] = y
            blocks.append(J)
    if errors:
        raise min(errors, key=lambda exc: exc.edge)
    return out, tuple(blocks)


def eval_stack(stack: MeasurementStack, p: BlockVec) -> BlockVec:
    """y = Phi(p); raises DomainViolation with the offending edge index."""
    return _eval_kinds(stack, p, jac=False)[0]


class _Jacobian(BlockMat):
    """R from its per-kind block arrays (see ``jacobian_stack``): each kind's
    blocks go to its rows and its members' columns of ``dense``."""

    def __init__(self, stack: MeasurementStack, values: BlockVec, by_kind: tuple):
        super().__init__(stack.row_structure, stack.col_structure)
        self.stack, self.values, self.by_kind = stack, values, by_kind

    @cached_property
    def dense(self) -> np.ndarray:
        dense, d = np.zeros((self.row_structure.total, self.col_structure.total)), self.stack.d
        for (_, _, members, rows), J in zip(self.stack._groups, self.by_kind):
            dense[rows[:, None, :, None], d * members[:, :, None, None] + np.arange(d)] = J
        return dense


def jacobian_stack(stack: MeasurementStack, p: BlockVec) -> BlockMat:
    """Block Jacobian R at p; block (l,i) is zero unless agent i is in edge l.
    From one model evaluation: ``R.by_kind``, per kind in the stack's order the
    (E, arity, m, d) array of blocks, and ``R.values`` = Phi(p), bit-equal to
    ``eval_stack``'s. ``R.dense`` is filled from ``by_kind`` on first read."""
    return _Jacobian(stack, *_eval_kinds(stack, p, jac=True))


def jacobian_fd_check(stack: MeasurementStack, p: BlockVec, step: float = 1e-6) -> float:
    """Max relative error between the analytic Jacobian and central differences."""
    analytic = jacobian_stack(stack, p).to_dense()
    n = p.structure.total
    fd = np.zeros_like(analytic)
    for col in range(n):
        dp = np.zeros(n)
        dp[col] = step
        y_plus = eval_stack(stack, BlockVec(p.structure, p.data + dp)).data
        y_minus = eval_stack(stack, BlockVec(p.structure, p.data - dp)).data
        fd[:, col] = (y_plus - y_minus) / (2.0 * step)
    scale = max(np.max(np.abs(analytic)), 1.0)
    return float(np.max(np.abs(analytic - fd)) / scale)


RANK_TOL = 1e-10  # relative to the largest singular value


def singular_values(R: BlockMat) -> np.ndarray:
    return np.linalg.svd(R.to_dense(), compute_uv=False)  # none for an empty matrix


def rank_of(sv: np.ndarray, rank_tol: float = RANK_TOL) -> int:
    """The numerical rank given the singular values sv, largest first."""
    return int(np.count_nonzero(sv > rank_tol * sv[0])) if sv.size else 0


def numerical_rank(R: BlockMat, rank_tol: float = RANK_TOL) -> int:
    return rank_of(singular_values(R), rank_tol)


def search_space_dim(R: BlockMat, rank_tol: float = RANK_TOL) -> tuple[int, int]:
    """(rank k, dimension n - k) of the level set through the configuration."""
    k = numerical_rank(R, rank_tol)
    return k, R.col_structure.total - k


def regular_point_check(R: BlockMat, rank_tol: float = RANK_TOL) -> bool:
    """True iff the Jacobian has full row rank (surjective differential)."""
    return numerical_rank(R, rank_tol) == R.row_structure.total
