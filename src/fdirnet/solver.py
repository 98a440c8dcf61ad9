"""Orchestration of the error-reconstruction solve.

The inner loop is consensus ADMM over the simulated network on the
linearized constraints; the outer loop relinearizes the measurement map
at the accumulated estimate (sequential convex programming), absorbs the
inner solution into x*, and stops on step size or measurement residual.
Faulty agents are the blocks of x* with non-negligible norm.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .agent import AgentState
from .blocklin import BlockMat, BlockVec, block_sparsity, support
from .exceptions import DomainViolation
from .measurements import MeasurementStack, eval_stack, jacobian_stack
from .netsim import Network
from .topology import build_tables


def is_finite_number(v) -> bool:
    """v is a finite int or float (YAML's true/false and .nan/.inf are not)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _check_positive(params, ints: tuple[str, ...], reals: tuple[str, ...]) -> None:
    """Each named field of params must be a positive int (``ints``) or a
    finite positive number (``reals``)."""
    for name in ints:
        v = getattr(params, name)
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValueError(f"{name}: must be a positive integer, got {v!r}")
    for name in reals:
        v = getattr(params, name)
        if not is_finite_number(v) or v <= 0:
            raise ValueError(f"{name}: must be a finite positive number, got {v!r}")


@dataclass
class InnerParams:
    rho: float = 1.0
    max_inner_iters: int = 2000
    tol_primal: float = 1e-6  # max constraint-violation norm
    tol_dual: float = 1e-6  # max change in xbar between iterations

    def __post_init__(self):
        _check_positive(self, ("max_inner_iters",), ("rho", "tol_primal", "tol_dual"))


@dataclass
class OuterParams:
    max_scp_iters: int = 20
    tol_step: float = 1e-5  # on ||xbar|| across agents
    tol_meas: float = 1e-6  # on ||y - Phi(p_hat + x*)||
    fault_tol: float | None = None  # None: 1e-3 * median block norm of p_hat

    def __post_init__(self):
        _check_positive(self, ("max_scp_iters",), ("tol_step", "tol_meas"))
        if self.fault_tol is not None:
            _check_positive(self, (), ("fault_tol",))


# one inner round: largest violation norms, l2,1 objective of x* + xbar,
# and how many agents took the x-update's fast path
INNER_ROW = np.dtype([("max_c_norm", float), ("max_d_norm", float),
                      ("l21_objective", float), ("fastpath_count", np.int64)])


@dataclass
class OuterIterRow:
    meas_residual: float
    x_star_sparsity: int
    inner_iters: int
    inner_converged: bool
    inner_stop: str  # "converged", "stalled" or "budget"


@dataclass
class RunTrace:
    inner: list[np.recarray] = field(default_factory=list)  # INNER_ROW per round
    outer: list[OuterIterRow] = field(default_factory=list)

    def dump_inner_csv(self, path, outer_iter: int) -> None:
        rows = self.inner[outer_iter]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["outer_iter", "inner_iter", "max_c_norm",
                             "max_d_norm", "l21_objective", "meas_residual",
                             "fastpath_count"])
            meas = self.outer[outer_iter].meas_residual if outer_iter < len(self.outer) else ""
            for t, row in enumerate(rows):
                writer.writerow([outer_iter, t, row.max_c_norm, row.max_d_norm,
                                 row.l21_objective, meas, row.fastpath_count])


def _local_linearization(stack: MeasurementStack, R: BlockMat, resid: np.ndarray,
                         i: int, neighbors: tuple[int, ...],
                         incident: tuple[int, ...]):
    """Agent i's packed rows of the linearization: (row offsets, J, r), in
    the layout of the agent module (edges ascending, columns [self | neighbors])."""
    d = stack.d
    col = {j: d * s for s, j in enumerate(neighbors, 1)}
    col[i] = 0
    offsets = R.row_structure.offsets
    edges, blocks = stack.graph.edges, R.blocks
    gather, rows = [], [0]  # rows of resid, in the agent's order
    for l in incident:
        gather.extend(range(offsets[l], offsets[l + 1]))
        rows.append(len(gather))
    J = np.zeros((rows[-1], d * (len(neighbors) + 1)))
    for e, l in enumerate(incident):
        agent_rows = slice(rows[e], rows[e + 1])
        for j in edges[l]:
            c = col[j]
            J[agent_rows, c:c + d] = blocks[l, j]
    return tuple(rows), J, resid[gather]


def build_network(stack: MeasurementStack, p_point: BlockVec, y: BlockVec,
                  x_star: BlockVec, rho: float,
                  record_trace: bool = False) -> Network:
    """Agents with the linearization (J, r) taken at p_point."""
    tables = build_tables(stack.graph)
    R = jacobian_stack(stack, p_point)
    resid = y.data - eval_stack(stack, p_point).data
    agents = []
    for i in range(stack.graph.num_vertices):
        nbrs = tuple(sorted(tables.neighbors[i]))
        rows, J, r = _local_linearization(stack, R, resid, i, nbrs,
                                          tables.incident[i])
        agents.append(AgentState(i=i, rho=rho, x_star=x_star.block(i),
                                 neighbors=nbrs, incident=tables.incident[i],
                                 rows=rows, J=J, r=r))
    return Network(agents, record_trace=record_trace)


def relinearize(network: Network, stack: MeasurementStack, p_point: BlockVec,
                resid: np.ndarray, x_star: BlockVec) -> None:
    """Hand every agent the linearization at p_point and the absorbed x*;
    resid is y - Phi(p_point), which the outer loop has already evaluated."""
    R = jacobian_stack(stack, p_point)
    for a in network.ordered:
        _, J, r = _local_linearization(stack, R, resid, a.i, a.neighbors, a.incident)
        a.relinearize(J, r, x_star.block(a.i))


STALL_WINDOW = 200
STALL_FACTOR = 0.9


def inner_admm(network: Network, params: InnerParams):
    """Run ADMM rounds until primal/dual tolerances or the budget.

    On an infeasible linearized system (linearization error off the range
    of R) the violations plateau at the infeasibility level; the loop then
    bails out early with converged=False instead of burning the budget,
    since the outer loop will relinearize anyway.

    Returns (xbar: BlockVec, rows, converged: bool, stop), where rows is
    a record array of INNER_ROW, one per round, and stop says why the loop
    ended: "converged", "stalled" or "budget".
    """
    agents = network.ordered
    x_star = np.array([a.x_star for a in agents])
    xbar = np.array([a.x_bar for a in agents])
    rows: list[tuple] = []
    stop = "budget"
    best_progress: list[float] = []

    for _ in range(params.max_inner_iters):
        network.run_iteration()

        prev_xbar, xbar = xbar, np.array([a.x_bar for a in agents])
        max_c, max_d = np.array([a.violation_norms() for a in agents]).max(
            axis=0, initial=0.0).tolist()
        rows.append((max_c, max_d, np.linalg.norm(x_star + xbar, axis=1).sum(),
                     sum(a.fast_path for a in agents)))

        dx = float(np.linalg.norm(xbar - prev_xbar, axis=1).max())
        if max_c <= params.tol_primal and max_d <= params.tol_primal \
                and dx <= params.tol_dual:
            stop = "converged"
            break
        progress = max(max_c, max_d, dx)
        best_progress.append(min(progress, best_progress[-1])
                             if best_progress else progress)
        if len(best_progress) > STALL_WINDOW and \
                best_progress[-1] > STALL_FACTOR * best_progress[-1 - STALL_WINDOW]:
            stop = "stalled"
            break

    return (BlockVec.from_blocks(xbar), np.rec.fromrecords(rows, dtype=INNER_ROW),
            stop == "converged", stop)


def identify_faults(x_star: BlockVec, fault_tol: float) -> frozenset:
    if fault_tol <= 0:
        raise ValueError("fault_tol must be positive")
    return support(x_star, fault_tol)


def default_fault_tol(p_hat: BlockVec) -> float:
    return max(1e-3 * float(np.median(p_hat.block_norms())), 1e-3)


@dataclass
class SolveResult:
    x_star: BlockVec
    faults: frozenset
    trace: RunTrace
    degraded: bool
    outer_iters: int
    meas_residual: float


def outer_scp(stack: MeasurementStack, p_hat: BlockVec, y: BlockVec,
              inner_params: InnerParams | None = None,
              outer_params: OuterParams | None = None) -> SolveResult:
    """Full SCP+ADMM solve from the reported states and measurements.

    The solver only ever sees (p_hat, y, topology); true states exist only
    in scenario files for evaluation.
    """
    inner_params = inner_params or InnerParams()
    outer_params = outer_params or OuterParams()
    trace = RunTrace()

    x_star = BlockVec(p_hat.structure)
    p_point = p_hat  # the linearization point p_hat + x*
    network = None
    degraded = False
    meas_res = np.inf

    for outer_it in range(outer_params.max_scp_iters):
        try:
            if network is None:
                network = build_network(stack, p_point, y, x_star,
                                        inner_params.rho)
            else:
                relinearize(network, stack, p_point, resid, x_star)
        except DomainViolation as exc:
            raise DomainViolation(
                f"iterate left measurement domain at outer iteration "
                f"{outer_it}: {exc} (x* = {x_star.data.tolist()})",
                edge=exc.edge,
            ) from exc

        xbar, rows, converged, stop = inner_admm(network, inner_params)
        trace.inner.append(rows)

        x_star = BlockVec(x_star.structure, x_star.data + xbar.data)
        p_point = BlockVec(p_hat.structure, p_hat.data + x_star.data)
        resid = y.data - eval_stack(stack, p_point).data
        meas_res = float(np.linalg.norm(resid))
        trace.outer.append(OuterIterRow(
            meas_residual=meas_res,
            x_star_sparsity=block_sparsity(x_star, 1e-9),
            inner_iters=len(rows),
            inner_converged=converged,
            inner_stop=stop,
        ))

        step = float(np.linalg.norm(xbar.data))
        if step <= outer_params.tol_step or meas_res <= outer_params.tol_meas:
            # inner stalls along the way are expected while the
            # linearization is coarse; reaching an outer stopping criterion
            # is what counts as a clean solve
            degraded = False
            break
        degraded = True

    fault_tol = outer_params.fault_tol
    if fault_tol is None:
        fault_tol = default_fault_tol(p_hat)
    faults = identify_faults(x_star, fault_tol)
    return SolveResult(x_star=x_star, faults=faults, trace=trace,
                       degraded=degraded, outer_iters=len(trace.outer),
                       meas_residual=meas_res)
